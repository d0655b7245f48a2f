package aa

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"isrl/internal/dataset"
	"isrl/internal/geom"
	"isrl/internal/vec"
)

// refSelectActions is the original candidate selection, kept as the
// reference the allocation-free selectActions must match: a full stable
// sort of every point index by center utility for the top K, a map to
// dedupe pairs, a halfspace per candidate and per probe, and a map for the
// second-pass skip. The stable sort pins the documented tie rule (equal
// utility ranks the lower index first).
func refSelectActions(a *AA, ctx context.Context, poly *geom.Polytope, geo *geom.Incremental, center []float64) []action {
	type cand struct {
		i, j int
		dist float64
	}
	n := a.ds.Len()
	k := a.cfg.TopK
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	scores := make([]float64, n)
	for i, p := range a.ds.Points {
		scores[i] = vec.Dot(center, p)
	}
	sort.SliceStable(idx, func(x, y int) bool { return scores[idx[x]] > scores[idx[y]] })
	top := idx[:k]

	var cands []cand
	seen := map[[2]int]bool{}
	add := func(i, j int) {
		if i == j {
			return
		}
		if i > j {
			i, j = j, i
		}
		key := [2]int{i, j}
		if seen[key] {
			return
		}
		seen[key] = true
		h := geom.NewHalfspace(a.ds.Points[i], a.ds.Points[j])
		if vec.Norm(h.Normal) < 1e-12 {
			return
		}
		cands = append(cands, cand{i: i, j: j, dist: h.Dist(center)})
	}
	for x := 0; x < len(top); x++ {
		for y := x + 1; y < len(top); y++ {
			add(top[x], top[y])
		}
	}
	for t := 0; t < a.cfg.RandPairs; t++ {
		add(a.rng.Intn(n), a.rng.Intn(n))
	}
	if a.cfg.RandomActions {
		a.rng.Shuffle(len(cands), func(x, y int) { cands[x], cands[y] = cands[y], cands[x] })
	} else {
		sort.SliceStable(cands, func(x, y int) bool {
			cx, cy := cands[x], cands[y]
			if cx.dist != cy.dist {
				return cx.dist < cy.dist
			}
			if cx.i != cy.i {
				return cx.i < cy.i
			}
			return cx.j < cy.j
		})
	}

	cuts := make([]int8, len(cands))
	probe := func(ci int) bool {
		if cuts[ci] == 0 {
			c := cands[ci]
			h := geom.NewHalfspace(a.ds.Points[c.i], a.ds.Points[c.j])
			var ok bool
			if geo != nil {
				ok = geo.CutsBothSides(uint64(c.i)<<32|uint64(c.j), h, 1e-9)
			} else {
				ok = poly.CutsBothSides(h, 1e-9)
			}
			cuts[ci] = 2
			if ok {
				cuts[ci] = 1
			}
		}
		return cuts[ci] == 1
	}

	var out []action
	var normals [][]float64
	checks := 0
	accept := func(ci int, requireDiverse bool) bool {
		if len(out) >= a.cfg.Mh || checks >= a.cfg.MaxLPChecks {
			return false
		}
		c := cands[ci]
		pi, pj := a.ds.Points[c.i], a.ds.Points[c.j]
		h := geom.NewHalfspace(pi, pj)
		nv := vec.Clone(h.Normal)
		vec.Normalize(nv)
		if requireDiverse {
			for _, prev := range normals {
				cos := vec.Dot(nv, prev)
				if cos > 0.9 || cos < -0.9 {
					return true
				}
			}
		}
		checks++
		if !probe(ci) {
			return true
		}
		feat := make([]float64, 0, 2*len(pi))
		feat = append(feat, pi...)
		feat = append(feat, pj...)
		out = append(out, action{I: c.i, J: c.j, Feat: feat})
		normals = append(normals, nv)
		return true
	}
	for ci := range cands {
		if !accept(ci, true) {
			break
		}
	}
	if len(out) < a.cfg.Mh {
		seenPair := map[[2]int]bool{}
		for _, ac := range out {
			seenPair[[2]int{ac.I, ac.J}] = true
		}
		for ci, c := range cands {
			if seenPair[[2]int{c.i, c.j}] {
				continue
			}
			if !accept(ci, false) {
				break
			}
		}
	}
	return out
}

func sameActions(t *testing.T, label string, got, want []action) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d actions, reference %d", label, len(got), len(want))
	}
	for x := range got {
		if got[x].I != want[x].I || got[x].J != want[x].J || !slices.Equal(got[x].Feat, want[x].Feat) {
			t.Fatalf("%s: action %d is (%d,%d), reference (%d,%d)", label, x, got[x].I, got[x].J, want[x].I, want[x].J)
		}
	}
}

// selStack is one AA with its own utility range and engine, so the
// optimized and reference selections each see an untouched LP state.
type selStack struct {
	a    *AA
	poly *geom.Polytope
	geo  *geom.Incremental
}

func newSelStack(ds *dataset.Dataset, cfg Config, seed int64) selStack {
	a := New(ds, 0.1, cfg, rand.New(rand.NewSource(seed)))
	poly := geom.NewPolytope(ds.Dim())
	return selStack{a: a, poly: poly, geo: a.newGeo(poly)}
}

// Over seeded sessions on anticorrelated and independent data at d=3 and
// d=4, the allocation-free selection must pick exactly the reference's
// actions in the same order every round, including under the
// random-order ablation, where the pool's insertion order shows through.
func TestSelectActionsMatchesReference(t *testing.T) {
	ctx := context.Background()
	sessions, rounds := 0, 0
	for _, kind := range []string{"anti", "indep"} {
		for _, d := range []int{3, 4} {
			for seed := int64(0); seed < 13; seed++ {
				rng := rand.New(rand.NewSource(900 + seed))
				var ds *dataset.Dataset
				if kind == "anti" {
					ds = dataset.Anticorrelated(rng, 400, d).Skyline()
				} else {
					ds = dataset.Independent(rng, 300, d)
				}
				cfg := smallCfg()
				if seed%2 == 1 {
					cfg = Config{}
				}
				cfg.RandomActions = seed%5 == 4
				u := geom.SampleSimplex(rng, d)
				opt, ref := newSelStack(ds, cfg, seed), newSelStack(ds, cfg, seed)
				for round := 0; round < 25; round++ {
					label := fmt.Sprintf("%s d=%d seed %d round %d", kind, d, seed, round)
					bo, err := opt.geo.InnerBallCtx(ctx)
					if err != nil {
						break
					}
					br, err := ref.geo.InnerBallCtx(ctx)
					if err != nil || !slices.Equal(bo.Center, br.Center) {
						t.Fatalf("%s: stacks diverged before selection", label)
					}
					got := opt.a.selectActions(ctx, opt.poly, opt.geo, bo.Center)
					want := refSelectActions(ref.a, ctx, ref.poly, ref.geo, br.Center)
					sameActions(t, label, got, want)
					rounds++
					if len(got) == 0 {
						break
					}
					act := got[round%len(got)]
					pi, pj := ds.Points[act.I], ds.Points[act.J]
					h := geom.NewHalfspace(pi, pj)
					if vec.Dot(u, pi) < vec.Dot(u, pj) {
						h = h.Flip()
					}
					for _, st := range []selStack{opt, ref} {
						st.a.addCut(ctx, st.poly, st.geo, h)
						st.a.maybeReduce(st.poly, st.geo, round+1)
					}
				}
				sessions++
			}
		}
	}
	if sessions < 50 || rounds < 10*sessions {
		t.Fatalf("only %d sessions and %d rounds compared", sessions, rounds)
	}
}

// tieData returns d=3 points in groups of three that score exactly alike at
// any center whose first two weights are equal: a point, its copy, and the
// point with its first two coordinates swapped. Groups are laid out in
// shuffled order so ties span non-adjacent indices.
func tieData(rng *rand.Rand, groups int) *dataset.Dataset {
	var pts [][]float64
	for g := 0; g < groups; g++ {
		p := []float64{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()}
		pts = append(pts, p, slices.Clone(p), []float64{p[1], p[0], p[2]})
	}
	rng.Shuffle(len(pts), func(x, y int) { pts[x], pts[y] = pts[y], pts[x] })
	return &dataset.Dataset{Name: "ties", Points: pts}
}

// Duplicate tuples and exactly tied center utilities: the top K must rank
// higher utility first and the lower index first among equals, with the
// K-th slot cutting through a tie group, and the whole selection must match
// the stable-sort reference.
func TestSelectActionsTieRule(t *testing.T) {
	ctx := context.Background()
	center := []float64{0.25, 0.25, 0.5}
	for seed := int64(0); seed < 8; seed++ {
		ds := tieData(rand.New(rand.NewSource(40+seed)), 20)
		cfg := Config{Mh: 4, TopK: 10, RandPairs: 60, MaxLPChecks: 30}
		opt, ref := newSelStack(ds, cfg, seed), newSelStack(ds, cfg, seed)

		idx := make([]int, ds.Len())
		for i := range idx {
			idx[i] = i
		}
		score := func(i int) float64 { return vec.Dot(center, ds.Points[i]) }
		sort.SliceStable(idx, func(x, y int) bool { return score(idx[x]) > score(idx[y]) })
		if score(idx[cfg.TopK-1]) != score(idx[cfg.TopK]) {
			t.Fatalf("seed %d: the K-th slot does not cut a tie group", seed)
		}

		got := opt.a.selectActions(ctx, opt.poly, opt.geo, center)
		if !slices.Equal(opt.a.sel.top, idx[:cfg.TopK]) {
			t.Fatalf("seed %d: top-K %v, want %v", seed, opt.a.sel.top, idx[:cfg.TopK])
		}
		want := refSelectActions(ref.a, ctx, ref.poly, ref.geo, center)
		sameActions(t, "ties", got, want)
		if len(got) == 0 {
			t.Fatalf("seed %d: no actions selected", seed)
		}
	}
}

// The scratch-geometry path must match the reference too.
func TestSelectActionsScratchPathMatchesReference(t *testing.T) {
	ctx := context.Background()
	ds := testData(t, 400, 4, 61)
	cfg := smallCfg()
	cfg.ScratchGeometry = true
	opt, ref := newSelStack(ds, cfg, 62), newSelStack(ds, cfg, 62)
	ball, err := opt.poly.InnerBall()
	if err != nil {
		t.Fatal(err)
	}
	got := opt.a.selectActions(ctx, opt.poly, nil, ball.Center)
	want := refSelectActions(ref.a, ctx, ref.poly, nil, ball.Center)
	sameActions(t, "scratch path", got, want)
}

// A warmed selection round allocates only the actions it returns (the
// slice and one shared Feat slab) plus one LP solution per solve of a
// cutting probe (two per accepted action): nothing proportional to the
// dataset or the candidate pool. Reseeding the rng redraws the same random
// pairs, so no-cut probes hit the engine's cache as in a served round.
func TestSelectActionsAllocs(t *testing.T) {
	ctx := context.Background()
	ds := testData(t, 3000, 4, 71)
	st := newSelStack(ds, Config{}, 72)
	u := []float64{0.4, 0.3, 0.2, 0.1}
	for round := 0; round < 3; round++ {
		ball, err := st.geo.InnerBallCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		acts := st.a.selectActions(ctx, st.poly, st.geo, ball.Center)
		if len(acts) == 0 {
			t.Fatal("no actions")
		}
		pi, pj := ds.Points[acts[0].I], ds.Points[acts[0].J]
		h := geom.NewHalfspace(pi, pj)
		if vec.Dot(u, pi) < vec.Dot(u, pj) {
			h = h.Flip()
		}
		st.a.addCut(ctx, st.poly, st.geo, h)
	}
	ball, err := st.geo.InnerBallCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	round := func() {
		st.a.rng.Seed(73)
		n = len(st.a.selectActions(ctx, st.poly, st.geo, ball.Center))
	}
	round()
	allocs := testing.AllocsPerRun(20, round)
	if limit := float64(2*st.a.cfg.Mh + 4); allocs > limit {
		t.Fatalf("warmed selectActions round allocates %.0f times (%d actions), want ≤ %.0f", allocs, n, limit)
	}
	// The byte count pins "nothing of size n": one float per point alone
	// must exceed the bound several times over.
	const runs, maxBytes = 20, 2 << 10
	if 8*ds.Len() < 4*maxBytes {
		t.Fatalf("%d points are too few for the byte bound to expose a per-point buffer", ds.Len())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if perRound := (after.TotalAlloc - before.TotalAlloc) / runs; perRound > maxBytes {
		t.Fatalf("warmed selectActions round allocates %d B over %d points, want ≤ %d B", perRound, ds.Len(), maxBytes)
	}
}
