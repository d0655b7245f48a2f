package geom

import (
	"context"
	"fmt"
	"math"
	"sort"

	"isrl/internal/fault"
	"isrl/internal/lp"
	"isrl/internal/trace"
	"isrl/internal/vec"
)

// This file is the round-incremental geometry engine. The interactive loop
// mutates its polytope one halfspace per round, yet the scratch primitives
// (vertex enumeration, the Chebyshev LP, the 2d outer-rectangle LPs, the
// cuts-both-sides probes) recompute everything from the constraint list every
// time. An Incremental handle wraps one Polytope and maintains cross-round
// state instead:
//
//   - a VertexSet updated by clipping the current vertices against the new
//     halfspace — keep/cut classification, new vertices on crossing edges —
//     instead of re-enumerating all (d−1)-subsets;
//   - warm lp.Solvers for the inner-ball and base (feasibility/extrema)
//     programs, re-solved by dual-simplex repair after each push;
//   - a monotone negative cache for cut probes: a hyperplane that misses R
//     keeps missing it as R shrinks.
//
// Every maintained structure watches the polytope's mutation generation and
// degrades to the scratch path on out-of-band changes, numeric doubt, or an
// armed geom.inc.clip fault — results stay exactly those of the scratch
// primitives (bit-identical for vertices, tolerance-identical for warm LP).

// incVertex is one maintained vertex with its active constraint set: indices
// into the pool (unit normals first, then nonzero halfspace normals), sorted
// ascending, recording which hyperplanes the vertex lies on.
type incVertex struct {
	u      []float64
	active []int
}

// VertexSet maintains the vertex list of a simple polytope across halfspace
// additions and redundant-halfspace removals. It mirrors the constraint pool
// of Polytope.Vertices and reproduces its output bit for bit: kept vertices
// keep the floats of their original d×d solves, and a new vertex is solved
// from the same system rows, in the same order, that the scratch enumeration
// would build for its active set. Whenever the polytope is not simple —
// some vertex lies on more or fewer than d−1 pool hyperplanes — clipping
// refuses and the owner falls back to scratch enumeration.
type VertexSet struct {
	d      int
	pool   [][]float64 // d unit normals, then nonzero halfspace normals
	norms  []float64   // ‖pool[i]‖, for classification tolerances
	hsPool []int       // per polytope halfspace: its pool index, or −1 (zero normal)
	verts  []incVertex // sorted by lexLess on u
	simple bool        // every vertex has exactly d−1 active constraints
}

// Len reports the number of maintained vertices.
func (vs *VertexSet) Len() int { return len(vs.verts) }

// rebuild refreshes vs from a scratch enumeration of p (served from p's
// cache when clean) and recomputes every active set.
func (vs *VertexSet) rebuild(ctx context.Context, p *Polytope) error {
	verts, err := p.VerticesCtx(ctx)
	if err != nil {
		return err
	}
	d := p.Dim
	vs.d = d
	vs.pool = vs.pool[:0]
	vs.norms = vs.norms[:0]
	vs.hsPool = vs.hsPool[:0]
	for i := 0; i < d; i++ {
		e := make([]float64, d)
		e[i] = 1
		vs.pool = append(vs.pool, e)
		vs.norms = append(vs.norms, 1)
	}
	for _, h := range p.Halfspaces {
		n := vec.Norm(h.Normal)
		if n == 0 {
			vs.hsPool = append(vs.hsPool, -1)
			continue
		}
		vs.hsPool = append(vs.hsPool, len(vs.pool))
		vs.pool = append(vs.pool, h.Normal)
		vs.norms = append(vs.norms, n)
	}
	vs.verts = vs.verts[:0]
	vs.simple = true
	for _, u := range verts {
		act := make([]int, 0, d-1)
		for i, w := range vs.pool {
			if math.Abs(vec.Dot(w, u)) <= vertexTol*(1+vs.norms[i]) {
				act = append(act, i)
			}
		}
		if len(act) != d-1 {
			vs.simple = false
		}
		vs.verts = append(vs.verts, incVertex{u: u, active: act})
	}
	return nil
}

// clip folds one freshly added halfspace into the vertex set. p must already
// contain h as its last halfspace. It returns false whenever the incremental
// update cannot be trusted to match scratch enumeration — a vertex on the new
// hyperplane, a non-simple new vertex, a quantized-key collision, an emptied
// or collapsed region — and the caller must rebuild; vs may then be left
// partially updated.
func (vs *VertexSet) clip(p *Polytope, h Halfspace) bool {
	if !vs.simple {
		return false
	}
	d := vs.d
	nh := vec.Norm(h.Normal)
	if nh == 0 {
		// Scratch excludes zero normals from the pool; R is unchanged.
		vs.hsPool = append(vs.hsPool, -1)
		return true
	}
	newIdx := len(vs.pool)
	tolH := vertexTol * (1 + nh)
	var keep, cut []int
	for i := range vs.verts {
		s := vec.Dot(h.Normal, vs.verts[i].u)
		switch {
		case s > tolH:
			keep = append(keep, i)
		case s < -tolH:
			cut = append(cut, i)
		default:
			return false // vertex on the new hyperplane: no longer simple
		}
	}
	vs.pool = append(vs.pool, h.Normal)
	vs.norms = append(vs.norms, nh)
	vs.hsPool = append(vs.hsPool, newIdx)
	if len(cut) == 0 {
		// Every vertex strictly satisfies h, so conv(verts) = R does too:
		// h changed nothing and no subset containing it is feasible.
		return true
	}
	if len(keep) == 0 {
		return false // R lost every vertex; let the scratch path judge
	}

	// Each edge from a kept to a cut vertex crosses the new hyperplane in one
	// new vertex. In a simple polytope two vertices are adjacent exactly when
	// they share d−2 active constraints; the crossing point is the solution of
	// Σu = 1, those d−2 hyperplanes, and h — precisely the system the scratch
	// enumeration solves for the active set {shared…, h}, rows in ascending
	// pool order, so the floats come out bit-identical.
	A := vec.NewMat(d, d)
	b := make([]float64, d)
	b[0] = 1
	var fresh []incVertex
	shared := make([]int, 0, d-1)
	for _, ki := range keep {
		ka := vs.verts[ki].active
		for _, ci := range cut {
			ca := vs.verts[ci].active
			shared = shared[:0]
			x, y := 0, 0
			for x < len(ka) && y < len(ca) {
				switch {
				case ka[x] == ca[y]:
					shared = append(shared, ka[x])
					x++
					y++
				case ka[x] < ca[y]:
					x++
				default:
					y++
				}
			}
			if len(shared) != d-2 {
				continue // not adjacent: no edge to cross
			}
			for j := 0; j < d; j++ {
				A.Set(0, j, 1)
			}
			for r, si := range shared {
				copy(A.Row(r+1), vs.pool[si])
			}
			copy(A.Row(d-1), h.Normal)
			u, ok := vec.SolveLinear(A, b, 1e-10)
			if !ok {
				continue // scratch skips the singular system too
			}
			if !p.feasibleVertex(u) {
				continue
			}
			act := make([]int, 0, d-1)
			act = append(act, shared...)
			act = append(act, newIdx)
			fresh = append(fresh, incVertex{u: u, active: act})
		}
	}
	if len(fresh) == 0 {
		return false // vertices were cut with no replacement: degenerate
	}

	// The new vertices must themselves be simple — exactly d−1 active pool
	// constraints — or the next clip would misjudge adjacency.
	for fi := range fresh {
		u := fresh[fi].u
		n := 0
		for i, w := range vs.pool {
			if math.Abs(vec.Dot(w, u)) <= vertexTol*(1+vs.norms[i]) {
				n++
			}
		}
		if n != d-1 {
			return false
		}
	}

	// Scratch dedups by quantized key; a collision there must force a rebuild
	// here or the two lists diverge.
	seen := make(map[string]bool, len(keep)+len(fresh))
	for _, ki := range keep {
		seen[quantKey(vs.verts[ki].u)] = true
	}
	for fi := range fresh {
		k := quantKey(fresh[fi].u)
		if seen[k] {
			return false
		}
		seen[k] = true
	}

	sort.Slice(fresh, func(a, b int) bool { return lexLess(fresh[a].u, fresh[b].u) })
	merged := make([]incVertex, 0, len(keep)+len(fresh))
	x, y := 0, 0
	for x < len(keep) && y < len(fresh) {
		if lexLess(vs.verts[keep[x]].u, fresh[y].u) {
			merged = append(merged, vs.verts[keep[x]])
			x++
		} else {
			merged = append(merged, fresh[y])
			y++
		}
	}
	for ; x < len(keep); x++ {
		merged = append(merged, vs.verts[keep[x]])
	}
	merged = append(merged, fresh[y:]...)
	vs.verts = merged
	return true
}

// remove drops the polytope halfspace at list index listIdx from the pool
// bookkeeping. The caller has certified the halfspace redundant, and in a
// simple polytope a redundant hyperplane is active at no vertex, so the
// vertex list itself is unchanged; remove only reindexes the active sets.
// It returns false — caller must rebuild — when the certificate is
// contradicted at tolerance level (some vertex does lie on the hyperplane)
// or the set is not simple.
func (vs *VertexSet) remove(listIdx int) bool {
	pi := vs.hsPool[listIdx]
	vs.hsPool = append(vs.hsPool[:listIdx], vs.hsPool[listIdx+1:]...)
	if pi < 0 {
		return true // zero normal never entered the pool
	}
	if !vs.simple {
		return false
	}
	for i := range vs.verts {
		for _, a := range vs.verts[i].active {
			if a == pi {
				return false
			}
		}
	}
	vs.pool = append(vs.pool[:pi], vs.pool[pi+1:]...)
	vs.norms = append(vs.norms[:pi], vs.norms[pi+1:]...)
	for i := range vs.hsPool {
		if vs.hsPool[i] > pi {
			vs.hsPool[i]--
		}
	}
	for i := range vs.verts {
		act := vs.verts[i].active
		for k := range act {
			if act[k] > pi {
				act[k]--
			}
		}
	}
	return true
}

// Incremental is a per-session geometry handle over one Polytope. All
// methods route to the scratch primitives when the maintained state is cold
// or degraded, so callers get scratch semantics with cross-round reuse as an
// optimization. Not safe for concurrent use (matching lp.Solver).
type Incremental struct {
	P *Polytope

	vs      *VertexSet
	vsFresh bool // vs mirrors P and P.verts is the maintained list

	inner *lp.Solver // Chebyshev-center program; nil until first InnerBallCtx
	base  *lp.Solver // feasibility/extrema program; nil until first use

	interior []float64 // latest inner-ball center; see Interior
	obj      []float64 // CutsBothSides objective, reused across probes

	// noCut caches hyperplanes proven (by an Optimal LP) not to cut R:
	// shrinking R preserves the verdict, so entries live until the polytope
	// grows. Keys are caller-chosen identities that must be stable for the
	// hyperplane across rounds; the margin must be constant per handle.
	noCut map[uint64]bool

	seenGen, seenGrow uint64
}

// NewIncremental returns a handle over p with no state warmed yet.
func NewIncremental(p *Polytope) *Incremental {
	return &Incremental{P: p, obj: make([]float64, p.Dim), noCut: make(map[uint64]bool), seenGen: p.gen, seenGrow: p.grow}
}

// sync drops whatever an out-of-band polytope mutation invalidated. Mutations
// through the handle re-read the generation themselves, so only foreign ones
// (direct Add, RepairFeasibility, scratch ReduceRedundant) land here.
func (g *Incremental) sync() {
	if g.P.gen != g.seenGen {
		g.vsFresh = false
		g.inner, g.base = nil, nil
		g.interior = nil
		g.seenGen = g.P.gen
	}
	if g.P.grow != g.seenGrow {
		clear(g.noCut) // R may have grown: negative verdicts no longer hold
		g.seenGrow = g.P.grow
	}
}

// Add intersects the polytope with h, folding it into every maintained
// structure: the vertex set by halfspace clip, the warm solvers by
// constraint push. See AddCtx.
func (g *Incremental) Add(h Halfspace) { g.AddCtx(context.Background(), h) }

// AddCtx is Add with tracing: a successful or degraded clip shows up as a
// "geom.inc.clip" span when ctx carries an active trace.
func (g *Incremental) AddCtx(ctx context.Context, h Halfspace) {
	g.sync()
	p := g.P
	p.Add(h)
	g.seenGen = p.gen
	if g.vs != nil && g.vsFresh {
		_, sp := trace.Start(ctx, "geom.inc.clip")
		if err := fault.Hit(fault.PointIncClip); err != nil {
			g.vsFresh = false
			incFallbacks.Inc()
		} else if g.vs.clip(p, h) {
			incClips.Inc()
			verts := make([][]float64, len(g.vs.verts))
			for i := range g.vs.verts {
				verts[i] = g.vs.verts[i].u
			}
			p.verts = verts
			p.vertsDirty = false
		} else {
			g.vsFresh = false
			incFallbacks.Inc()
		}
		if sp != nil {
			sp.SetInt("vertices", int64(len(p.verts)))
		}
		sp.End()
	}
	if g.inner != nil {
		if row, ok := innerBallRow(h, p.Dim); ok {
			res := g.inner.Push(lp.Constraint{Coeffs: row, Sense: lp.GE, RHS: 0})
			if res.Status == lp.Optimal {
				g.interior = append(g.interior[:0], res.X[:p.Dim]...)
			} else {
				g.interior = nil
			}
		}
	}
	if g.base != nil {
		g.base.Push(lp.Constraint{Coeffs: h.Normal, Sense: lp.GE, RHS: 0})
	}
}

// VerticesCtx returns the vertex set of R, serving the maintained list when
// it is current and rebuilding it from scratch enumeration otherwise.
func (g *Incremental) VerticesCtx(ctx context.Context) ([][]float64, error) {
	g.sync()
	if g.vs != nil && g.vsFresh && !g.P.vertsDirty {
		incVertHits.Inc()
		return g.P.verts, nil
	}
	if g.vs == nil {
		g.vs = &VertexSet{}
	}
	incRebuilds.Inc()
	if err := g.vs.rebuild(ctx, g.P); err != nil {
		g.vsFresh = false
		return nil, err
	}
	g.vsFresh = true
	return g.P.verts, nil
}

// InnerBallCtx returns the Chebyshev ball of R, warm-re-solving the
// maintained inner-ball program instead of rebuilding the LP each round.
func (g *Incremental) InnerBallCtx(ctx context.Context) (Ball, error) {
	g.sync()
	_, sp := trace.Start(ctx, "geom.inner_ball")
	defer sp.End()
	if g.inner == nil {
		g.inner = lp.NewSolver(g.P.innerBallProblem())
	}
	res := g.inner.Solve()
	if res.Status != lp.Optimal {
		return Ball{}, fmt.Errorf("geom: inner ball: %v", res.Status)
	}
	d := g.P.Dim
	g.interior = append(g.interior[:0], res.X[:d]...)
	return Ball{Center: vec.Clone(res.X[:d]), Radius: res.Objective}, nil
}

// OuterRectCtx returns the per-dimension extrema of u over R, driving the 2d
// solves through the warm base solver (phase-1-free re-optimizations).
func (g *Incremental) OuterRectCtx(ctx context.Context) (emin, emax []float64, err error) {
	g.sync()
	_, sp := trace.Start(ctx, "geom.outer_rect")
	defer sp.End()
	if g.base == nil {
		g.base = lp.NewSolver(g.P.baseProblem(0))
	}
	d := g.P.Dim
	emin = make([]float64, d)
	emax = make([]float64, d)
	obj := make([]float64, d)
	for i := 0; i < d; i++ {
		vec.Fill(obj, 0)
		obj[i] = 1
		res := g.base.SolveWith(obj)
		if res.Status != lp.Optimal {
			return nil, nil, fmt.Errorf("geom: outer rect max dim %d: %v", i, res.Status)
		}
		emax[i] = res.Objective
		obj[i] = -1
		res = g.base.SolveWith(obj)
		if res.Status != lp.Optimal {
			return nil, nil, fmt.Errorf("geom: outer rect min dim %d: %v", i, res.Status)
		}
		emin[i] = -res.Objective
	}
	return emin, emax, nil
}

// CutsBothSides is Polytope.CutsBothSides through the warm base solver and
// the cross-round negative cache. key identifies the hyperplane of h and
// must be stable across rounds; margin must be the same on every call. Only
// verdicts certified by an Optimal solve are cached, so transient solver
// failures (including injected faults) never stick.
func (g *Incremental) CutsBothSides(key uint64, h Halfspace, margin float64) bool {
	g.sync()
	if g.noCut[key] {
		incProbeHits.Inc()
		return false
	}
	if g.base == nil {
		g.base = lp.NewSolver(g.P.baseProblem(0))
	}
	obj := g.obj
	copy(obj, h.Normal)
	res := g.base.SolveWith(obj)
	if res.Status != lp.Optimal {
		return false
	}
	if res.Objective <= margin {
		g.noCut[key] = true
		return false
	}
	vec.Scale(obj, -1, h.Normal)
	res = g.base.SolveWith(obj)
	if res.Status != lp.Optimal {
		return false
	}
	if res.Objective <= margin {
		g.noCut[key] = true
		return false
	}
	return true
}

// Reduce is Polytope.ReduceRedundant with maintained-state upkeep: probes
// use the same from-scratch relaxation LPs (identical removal decisions),
// the vertex set survives each removal by reindexing (a redundant halfspace
// is active at no vertex of a simple polytope), and the warm solvers are
// dropped for lazy rebuild — the inner-ball program normalizes every row
// into a ball constraint, so a removed redundant halfspace does change its
// optimum, and rebuilding also keeps tableau width bounded by the live
// constraint count.
func (g *Incremental) Reduce() int {
	g.sync()
	p := g.P
	removed := 0
	rest := make([]Halfspace, 0, len(p.Halfspaces))
	neg := make([]float64, p.Dim)
	for i := 0; i < len(p.Halfspaces); {
		h := p.Halfspaces[i]
		rest = append(rest[:0], p.Halfspaces[:i]...)
		rest = append(rest, p.Halfspaces[i+1:]...)
		q := &Polytope{Dim: p.Dim, Halfspaces: rest}
		if q.sideFeasible(vec.Scale(neg, -1, h.Normal), 1e-9) {
			i++ // h actively cuts; keep it
			continue
		}
		wasFresh := g.vsFresh && !p.vertsDirty
		p.Halfspaces = append(p.Halfspaces[:i], p.Halfspaces[i+1:]...)
		p.vertsDirty = true
		p.gen++
		removed++
		if g.vs != nil && g.vsFresh {
			if g.vs.remove(i) {
				if wasFresh {
					p.vertsDirty = false
				}
			} else {
				g.vsFresh = false
				incFallbacks.Inc()
			}
		}
	}
	if removed > 0 {
		g.inner, g.base = nil, nil
	}
	g.seenGen = p.gen
	return removed
}

// Interior returns the latest inner-ball center — a point interior to R as
// of the round it was computed — or nil when none is known. Callers must
// re-validate with Contains before relying on it; the handle clears it when
// it can no longer vouch for interiority.
func (g *Incremental) Interior() []float64 {
	g.sync()
	return g.interior
}
