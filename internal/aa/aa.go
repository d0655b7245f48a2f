// Package aa implements the paper's approximate algorithm AA (§IV-C): an
// RL-driven interactive regret query that never materializes the utility
// range exactly. It keeps only the set H of learned halfspaces, encodes each
// state with the LP-computed inner sphere and outer rectangle of R, selects
// candidate questions whose hyperplanes pass near the inner-sphere center,
// and stops once ‖e_min − e_max‖ ≤ 2√d·ε (Lemma 9: regret ≤ d²ε, and in
// practice below ε). This design scales to the high dimensionalities where
// polyhedron-maintaining algorithms are infeasible.
package aa

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/geom"
	"isrl/internal/rl"
	"isrl/internal/trace"
	"isrl/internal/vec"
)

// Config collects AA's hyperparameters. Zero values select defaults matching
// the paper's §V settings via Defaults.
type Config struct {
	Mh          int // action-space size m_h (paper: 5)
	TopK        int // top points by center utility forming the main pair pool
	RandPairs   int // extra uniformly sampled pairs per round
	MaxLPChecks int // budget of two-sided feasibility probes per round
	MaxRounds   int // safety cap on interactive rounds
	RL          rl.Config

	// Resilient enables the error-tolerant mode of the paper's future work
	// (§VI): when contradictory answers empty the utility range, the least
	// consistent halfspaces are dropped (geom.RepairFeasibility) and the
	// interaction continues instead of stopping at the centroid.
	Resilient bool

	// ScratchGeometry disables the round-incremental geometry engine: every
	// inner-sphere/outer-rectangle LP is built and solved from scratch and
	// cut probes run uncached (the pre-engine behavior, with the parallel
	// speculative probe window). The engine replaces those with warm-started
	// re-solves and a cross-round probe cache; optima agree within LP
	// tolerance but floating-point drift can reorder near-tie decisions.
	ScratchGeometry bool

	// RandomActions is an ablation switch (DESIGN.md §5): candidate pairs
	// are taken in random order instead of nearest-to-center order.
	RandomActions bool
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Mh == 0 {
		c.Mh = 5
	}
	if c.TopK == 0 {
		c.TopK = 20
	}
	if c.RandPairs == 0 {
		c.RandPairs = 100
	}
	if c.MaxLPChecks == 0 {
		c.MaxLPChecks = 60
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 400
	}
	c.RL = c.RL.Defaults()
	return c
}

// AA is the approximate RL interactive algorithm, bound to the dataset and
// threshold it was trained for. An AA runs one session at a time: its rng
// and candidate-selection scratch belong to that session.
type AA struct {
	cfg   Config
	ds    *dataset.Dataset
	eps   float64
	agent *rl.Agent
	rng   *rand.Rand
	sel   selectScratch // candidate-selection buffers, reused every round
}

// New creates an untrained AA for ds and threshold eps. It panics on an
// empty dataset, dimensionality < 2, or a threshold outside (0,1).
func New(ds *dataset.Dataset, eps float64, cfg Config, rng *rand.Rand) *AA {
	validate(ds, eps)
	cfg = cfg.Defaults()
	d := ds.Dim()
	stateDim := 3*d + 1 // inner center ⊕ radius ⊕ e_min ⊕ e_max
	actionDim := 2 * d
	return &AA{
		cfg:   cfg,
		ds:    ds,
		eps:   eps,
		agent: rl.NewAgent(stateDim, actionDim, cfg.RL, rng),
		rng:   rng,
	}
}

// validate panics with a clear message on unusable construction inputs.
func validate(ds *dataset.Dataset, eps float64) {
	if ds == nil || ds.Len() == 0 {
		panic("aa: empty dataset")
	}
	if ds.Dim() < 2 {
		panic(fmt.Sprintf("aa: dimensionality %d < 2", ds.Dim()))
	}
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("aa: regret threshold %v outside (0,1)", eps))
	}
}

// Load restores an AA whose agent was serialized with Agent().MarshalBinary.
// ds, eps and cfg must match the values used at training time.
func Load(ds *dataset.Dataset, eps float64, cfg Config, blob []byte, rng *rand.Rand) (*AA, error) {
	cfg = cfg.Defaults()
	agent, err := rl.UnmarshalAgent(blob, cfg.RL)
	if err != nil {
		return nil, fmt.Errorf("aa: load: %w", err)
	}
	d := ds.Dim()
	if agent.StateDim != 3*d+1 || agent.ActionDim != 2*d {
		return nil, fmt.Errorf("aa: load: model dims (%d,%d) do not match dataset (%d,%d)",
			agent.StateDim, agent.ActionDim, 3*d+1, 2*d)
	}
	return &AA{cfg: cfg, ds: ds, eps: eps, agent: agent, rng: rng}, nil
}

// Name implements core.Algorithm.
func (a *AA) Name() string { return "AA" }

// Agent exposes the underlying DQN.
func (a *AA) Agent() *rl.Agent { return a.agent }

// Config returns the resolved configuration.
func (a *AA) Config() Config { return a.cfg }

type action struct {
	I, J int
	Feat []float64
}

type round struct {
	state    []float64
	center   []float64
	mid      []float64 // outer-rectangle midpoint (the return vector)
	actions  []action
	terminal bool
	degraded bool   // terminal without the Lemma-9 stop (range collapsed)
	reason   string // why, when degraded
}

// newGeo returns the round-incremental engine over poly, or nil when the
// scratch path was requested.
func (a *AA) newGeo(poly *geom.Polytope) *geom.Incremental {
	if a.cfg.ScratchGeometry {
		return nil
	}
	return geom.NewIncremental(poly)
}

func innerBall(ctx context.Context, poly *geom.Polytope, geo *geom.Incremental) (geom.Ball, error) {
	if geo != nil {
		return geo.InnerBallCtx(ctx)
	}
	return poly.InnerBallCtx(ctx)
}

func outerRect(ctx context.Context, poly *geom.Polytope, geo *geom.Incremental) (emin, emax []float64, err error) {
	if geo != nil {
		return geo.OuterRectCtx(ctx)
	}
	return poly.OuterRectCtx(ctx)
}

// computeRound derives AA's MDP view from the halfspace set: the inner
// sphere and outer rectangle (state + stopping test) and the
// nearest-to-center candidate questions (action space).
func (a *AA) computeRound(ctx context.Context, poly *geom.Polytope, geo *geom.Incremental, eps float64) (*round, error) {
	d := a.ds.Dim()
	ball, err := innerBall(ctx, poly, geo)
	if err != nil && a.cfg.Resilient && len(poly.Halfspaces) > 0 {
		// Contradictory answers emptied R: drop the least consistent
		// constraints and continue (§VI future work). The repair mutates the
		// polytope directly; the engine resynchronizes on the re-read.
		poly.RepairFeasibility(0)
		ball, err = innerBall(ctx, poly, geo)
	}
	if err != nil {
		// Empty range (noisy users): stop at the centroid.
		c := geom.SimplexCentroid(d)
		return &round{
			terminal: true, center: c, mid: c,
			degraded: true, reason: "utility range empty (contradictory answers)",
		}, nil
	}
	emin, emax, err := outerRect(ctx, poly, geo)
	if err != nil {
		return nil, fmt.Errorf("aa: %w", err)
	}
	r := &round{center: ball.Center, mid: vec.Mid(nil, emin, emax)}
	r.state = make([]float64, 0, 3*d+1)
	r.state = append(r.state, ball.Center...)
	r.state = append(r.state, ball.Radius)
	r.state = append(r.state, emin...)
	r.state = append(r.state, emax...)
	if core.RectStop(emin, emax, eps) {
		r.terminal = true
		return r, nil
	}
	r.actions = a.selectActions(ctx, poly, geo, ball.Center)
	if len(r.actions) == 0 {
		// No hyperplane can strictly narrow R further; more questions are
		// pointless, so stop with the midpoint estimate.
		r.terminal = true
	}
	return r, nil
}

// cand is one candidate question ⟨p_i, p_j⟩ (i < j) with the distance of
// its hyperplane from the inner-sphere center.
type cand struct {
	i, j int
	dist float64
}

// selectScratch holds selectActions' working buffers. They are sized once
// and reused every round, so a round allocates only the actions it returns.
// One *AA serves one session at a time (the serving factory builds one per
// session), so the scratch needs no locking.
type selectScratch struct {
	top     []int     // top-K point indices by center utility, best first
	scores  []float64 // scores[x] = center·p_top[x]
	cands   []cand    // candidate pool, K(K−1)/2 + RandPairs capacity
	rnd     [][2]int  // random pairs drawn this round, i < j
	cuts    []int8    // probe memo per candidate: 0 unprobed, 1 cuts, 2 no
	normal  []float64 // p_i − p_j of the pair being measured or probed
	normals []float64 // unit normals of accepted actions, d per slot
}

// scratch returns the session's selection buffers, allocating them on first
// use.
func (a *AA) scratch() *selectScratch {
	s := &a.sel
	if s.normal == nil {
		d, k := a.ds.Dim(), min(a.cfg.TopK, a.ds.Len())
		pool := k*(k-1)/2 + a.cfg.RandPairs
		s.top = make([]int, 0, k)
		s.scores = make([]float64, 0, k)
		s.cands = make([]cand, 0, pool)
		s.rnd = make([][2]int, 0, a.cfg.RandPairs)
		s.cuts = make([]int8, 0, pool)
		s.normal = make([]float64, d)
		s.normals = make([]float64, d*a.cfg.Mh)
	}
	return s
}

// topK fills s.top with the k points of highest utility at center in one
// pass, best first. Equal scores rank the lower index first, which is the
// order a stable sort of all indices by descending score produces.
func (s *selectScratch) topK(points [][]float64, center []float64, k int) {
	top, scores := s.top[:0], s.scores[:0]
	for i, p := range points {
		v := vec.Dot(center, p)
		if len(top) == k && !(v > scores[k-1]) {
			continue
		}
		if len(top) < k {
			top, scores = append(top, 0), append(scores, 0)
		}
		// Entries scoring at least v stay ahead: they are better, or tie
		// with a lower index.
		at := len(top) - 1
		for at > 0 && scores[at-1] < v {
			top[at], scores[at] = top[at-1], scores[at-1]
			at--
		}
		top[at], scores[at] = i, v
	}
	s.top, s.scores = top, scores
}

// addCand appends pair (i, j) to the pool unless its points coincide, with
// the distance of its hyperplane from center.
func (a *AA) addCand(s *selectScratch, i, j int, center []float64) {
	if i > j {
		i, j = j, i
	}
	h := geom.Halfspace{Normal: vec.Sub(s.normal, a.ds.Points[i], a.ds.Points[j])}
	if vec.Norm(h.Normal) < 1e-12 {
		return
	}
	s.cands = append(s.cands, cand{i: i, j: j, dist: h.Dist(center)})
}

// collectCandidates builds the round's pool: every pair of the top-K points,
// then RandPairs uniformly drawn pairs. A drawn pair is dropped when both
// its ends are in the top-K (that pair is already pooled) or it repeats an
// earlier draw, so the pool holds each pair once, in first-seen order.
func (a *AA) collectCandidates(s *selectScratch, center []float64) {
	s.cands, s.rnd = s.cands[:0], s.rnd[:0]
	for x, i := range s.top {
		for _, j := range s.top[x+1:] {
			a.addCand(s, i, j, center)
		}
	}
	n := a.ds.Len()
	for t := 0; t < a.cfg.RandPairs; t++ {
		i, j := a.rng.Intn(n), a.rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		if slices.Contains(s.top, i) && slices.Contains(s.top, j) || slices.Contains(s.rnd, [2]int{i, j}) {
			continue
		}
		s.rnd = append(s.rnd, [2]int{i, j})
		a.addCand(s, i, j, center)
	}
}

// selectActions implements §IV-C's restricted action space: among a
// candidate pool (all pairs of the top-K points by center utility plus
// random pairs), keep the m_h pairs whose hyperplane is nearest the
// inner-sphere center and properly splits R (both sides non-empty, checked
// by LP — Lemma 8).
//
// Ties are broken deterministically: points with equal center utility rank
// the lower index first when taking the top K, and candidates at equal
// distance are ordered by (i, j). All working buffers live in the AA's
// per-session selectScratch, so a round allocates nothing proportional to
// the dataset or the pool; only the returned actions are fresh.
func (a *AA) selectActions(ctx context.Context, poly *geom.Polytope, geo *geom.Incremental, center []float64) []action {
	ctx, sp := trace.Start(ctx, "aa.select_actions")
	s := a.scratch()
	s.topK(a.ds.Points, center, min(a.cfg.TopK, a.ds.Len()))
	a.collectCandidates(s, center)
	cands := s.cands
	if a.cfg.RandomActions {
		a.rng.Shuffle(len(cands), func(x, y int) { cands[x], cands[y] = cands[y], cands[x] })
	} else {
		slices.SortFunc(cands, func(x, y cand) int {
			return cmp.Or(cmp.Compare(x.dist, y.dist), cmp.Compare(x.i, y.i), cmp.Compare(x.j, y.j))
		})
	}
	s.cuts = s.cuts[:len(cands)]
	clear(s.cuts)

	// Greedy fill with an angular-diversity filter: a pool of nearly
	// parallel hyperplanes would keep slicing the same direction and leave
	// the outer rectangle wide elsewhere, so candidates too parallel to an
	// already accepted cut are deferred to a second pass. The unit normal of
	// the candidate under test is built in the next free normals slot, so
	// accepting it needs no copy.
	d := a.ds.Dim()
	out := make([]action, 0, a.cfg.Mh)
	feats := make([]float64, 0, 2*d*a.cfg.Mh) // backing store of every returned Feat
	checks := 0
	accept := func(ci int, requireDiverse bool) bool {
		if len(out) >= a.cfg.Mh || checks >= a.cfg.MaxLPChecks {
			return false
		}
		c := cands[ci]
		pi, pj := a.ds.Points[c.i], a.ds.Points[c.j]
		n := vec.Sub(s.normals[len(out)*d:(len(out)+1)*d], pi, pj)
		vec.Normalize(n)
		if requireDiverse {
			for x := range out {
				cos := vec.Dot(n, s.normals[x*d:(x+1)*d])
				if cos > 0.9 || cos < -0.9 {
					return true // skip, but keep scanning
				}
			}
		}
		checks++
		if !a.probe(s, poly, geo, ci) {
			return true
		}
		at := len(feats)
		feats = append(append(feats, pi...), pj...)
		out = append(out, action{I: c.i, J: c.j, Feat: feats[at:len(feats):len(feats)]})
		return true
	}
	for ci := range cands {
		if !accept(ci, true) {
			break
		}
	}
	if len(out) < a.cfg.Mh { // second pass without the diversity filter
		for ci, c := range cands {
			if slices.ContainsFunc(out, func(ac action) bool { return ac.I == c.i && ac.J == c.j }) {
				continue
			}
			if !accept(ci, false) {
				break
			}
		}
	}
	if sp != nil {
		sp.SetInt("candidates", int64(len(cands)))
		sp.SetInt("lp_checks", int64(checks))
		sp.SetInt("selected", int64(len(out)))
		sp.End()
	}
	return out
}

// probe reports whether candidate ci's hyperplane cuts R on both sides,
// memoized in s.cuts so the second accept pass does not re-probe. LP
// feasibility probes dominate selection.
//
// With the incremental engine the probes run through the warm solver, whose
// cross-round negative cache (a no-cut verdict stays no-cut as R shrinks)
// eliminates most of them outright; the pair's normal is built in the
// scratch buffer, which CutsBothSides copies. On the scratch path each
// probe solves fresh LPs over poly.
func (a *AA) probe(s *selectScratch, poly *geom.Polytope, geo *geom.Incremental, ci int) bool {
	if s.cuts[ci] != 0 {
		return s.cuts[ci] == 1
	}
	c := s.cands[ci]
	var cuts bool
	if geo != nil {
		h := geom.Halfspace{Normal: vec.Sub(s.normal, a.ds.Points[c.i], a.ds.Points[c.j])}
		cuts = geo.CutsBothSides(uint64(c.i)<<32|uint64(c.j), h, 1e-9)
	} else {
		cuts = poly.CutsBothSides(geom.NewHalfspace(a.ds.Points[c.i], a.ds.Points[c.j]), 1e-9)
	}
	s.cuts[ci] = 2
	if cuts {
		s.cuts[ci] = 1
	}
	return cuts
}

// AppendQuestions runs one round of candidate selection against the utility
// range geo tracks, with center as the inner-sphere center, and appends the
// selected pairs to dst in action order. It draws from and advances the
// AA's rng and uses its per-session scratch, exactly as a served round does,
// so it is for inspection and benchmarks between rounds, not for concurrent
// use.
func (a *AA) AppendQuestions(ctx context.Context, dst [][2]int, geo *geom.Incremental, center []float64) [][2]int {
	for _, ac := range a.selectActions(ctx, geo.P, geo, center) {
		dst = append(dst, [2]int{ac.I, ac.J})
	}
	return dst
}

// TrainStats summarizes a training run.
type TrainStats struct {
	Episodes   int
	TotalSteps int
	AvgRounds  float64
	FinalLoss  float64
	RL         rl.TrainStats // DQN-level telemetry (loss EMA, syncs, replay)
}

// Train runs Algorithm 3 over the training utility vectors.
func (a *AA) Train(users [][]float64) (TrainStats, error) {
	replay := rl.NewReplay(a.cfg.RL.ReplayCap)
	stats := TrainStats{Episodes: len(users)}
	var rounds float64
	var epsilon float64
	for ep, u := range users {
		user := core.SimulatedUser{Utility: u}
		epsilon = a.agent.Config().Epsilon.At(ep)
		n, err := a.episode(user, epsilon, replay)
		if err != nil {
			return stats, fmt.Errorf("aa: training episode %d: %w", ep, err)
		}
		stats.TotalSteps += n
		rounds += float64(n)
		// One gradient step per environment step (see the matching comment
		// in package ea).
		if replay.Len() >= a.agent.Config().BatchSize {
			for k := 0; k < n; k++ {
				stats.FinalLoss = a.agent.TrainBatch(replay.Sample(a.rng, a.agent.Config().BatchSize))
			}
		}
	}
	if len(users) > 0 {
		stats.AvgRounds = rounds / float64(len(users))
	}
	stats.RL = a.agent.Stats()
	stats.RL.Epsilon = epsilon
	stats.RL.ReplaySize = replay.Len()
	return stats, nil
}

func (a *AA) episode(user core.User, epsilon float64, replay *rl.Replay) (int, error) {
	ctx := context.Background()
	poly := geom.NewPolytope(a.ds.Dim())
	geo := a.newGeo(poly)
	cur, err := a.computeRound(ctx, poly, geo, a.eps)
	if err != nil {
		return 0, err
	}
	rounds := 0
	for !cur.terminal && rounds < a.cfg.MaxRounds {
		ai := a.agent.SelectEpsGreedy(a.rng, cur.state, feats(cur.actions), epsilon)
		act := cur.actions[ai]
		pi, pj := a.ds.Points[act.I], a.ds.Points[act.J]
		if user.Prefer(pi, pj) {
			a.addCut(ctx, poly, geo, geom.NewHalfspace(pi, pj))
		} else {
			a.addCut(ctx, poly, geo, geom.NewHalfspace(pj, pi))
		}
		rounds++
		a.maybeReduce(poly, geo, rounds)
		next, err := a.computeRound(ctx, poly, geo, a.eps)
		if err != nil {
			return rounds, err
		}
		tr := rl.Transition{
			State:    cur.state,
			Action:   act.Feat,
			Next:     next.state,
			Terminal: next.terminal,
		}
		if next.terminal {
			tr.Reward = a.agent.Config().RewardC
		} else {
			tr.NextActions = feats(next.actions)
		}
		replay.Add(tr)
		cur = next
	}
	return rounds, nil
}

// addCut records one answer halfspace, through the incremental engine when
// it is enabled so the maintained vertex set and warm solvers track the cut.
func (a *AA) addCut(ctx context.Context, poly *geom.Polytope, geo *geom.Incremental, h geom.Halfspace) {
	if geo != nil {
		geo.AddCtx(ctx, h)
		return
	}
	poly.Add(h)
}

// maybeReduce prunes redundant halfspaces periodically so the per-round LPs
// stay small on long interactions. The set representation is AA's only
// state, and reduction preserves R exactly.
func (a *AA) maybeReduce(poly *geom.Polytope, geo *geom.Incremental, rounds int) {
	if rounds%8 == 0 && len(poly.Halfspaces) > 2*poly.Dim {
		if geo != nil {
			geo.Reduce()
		} else {
			poly.ReduceRedundant()
		}
	}
}

func feats(actions []action) [][]float64 {
	fs := make([][]float64, len(actions))
	for i, act := range actions {
		fs[i] = act.Feat
	}
	return fs
}

// safeRound is computeRound behind a panic-containment boundary: a panic in
// the LP machinery (degenerate tableau, injected fault) surfaces as an error
// the serving path can degrade on instead of a dead process.
func (a *AA) safeRound(ctx context.Context, poly *geom.Polytope, geo *geom.Incremental, eps float64) (r *round, err error) {
	if perr := core.Guard(func() { r, err = a.computeRound(ctx, poly, geo, eps) }); perr != nil {
		return nil, perr
	}
	return r, err
}

// Run implements core.Algorithm (Algorithm 4: inference). It returns the
// point with the highest utility w.r.t. the outer-rectangle midpoint once
// the stopping condition of Lemma 9 holds.
//
// Serving is fault-tolerant, with the same contract as EA: per-round
// geometry failures and ranges emptied by contradictory answers end the
// session with a best-effort Degraded result scored against the last healthy
// inner-sphere center; only a dataset mismatch is still an error.
func (a *AA) Run(ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	return a.RunContext(context.Background(), ds, user, eps, obs)
}

// RunContext implements core.ContextAlgorithm: Run with per-round tracing,
// under the same contract as ea.RunContext — every interactive round becomes
// a "session.round" span with the LP geometry, candidate selection, scoring
// and oracle wait as children.
func (a *AA) RunContext(ctx context.Context, ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	if ds != a.ds && (ds.Len() != a.ds.Len() || ds.Dim() != a.ds.Dim()) {
		return core.Result{}, core.ErrDatasetMismatch
	}
	poly := geom.NewPolytope(a.ds.Dim())
	geo := a.newGeo(poly)
	var lastCenter []float64
	var qas []core.QA
	rounds, recovered := 0, 0
	degrade := func(reason string) (core.Result, error) {
		res := core.BestEffortResult(a.ds, lastCenter, rounds, qas, reason)
		res.PanicsRecovered = recovered
		return res, nil
	}
	fail := func(err error) (core.Result, error) {
		var pe *core.PanicError
		if errors.As(err, &pe) {
			recovered++
		}
		return degrade(err.Error())
	}
	cur, err := a.safeRound(ctx, poly, geo, eps)
	if err != nil {
		return fail(err)
	}
	for !cur.terminal && rounds < a.cfg.MaxRounds {
		lastCenter = cur.center
		rctx, rsp := trace.Start(ctx, "session.round")
		if rsp != nil {
			rsp.SetInt("round", int64(rounds+1))
			rsp.SetInt("candidates", int64(len(cur.actions)))
		}
		ai := a.agent.BestCtx(rctx, cur.state, feats(cur.actions))
		act := cur.actions[ai]
		pi, pj := a.ds.Points[act.I], a.ds.Points[act.J]
		osp := trace.StartLeaf(rctx, "oracle.wait")
		prefI := user.Prefer(pi, pj)
		osp.End()
		if prefI {
			a.addCut(rctx, poly, geo, geom.NewHalfspace(pi, pj))
		} else {
			a.addCut(rctx, poly, geo, geom.NewHalfspace(pj, pi))
		}
		rounds++
		a.maybeReduce(poly, geo, rounds)
		qas = append(qas, core.QA{I: act.I, J: act.J, PreferredI: prefI})
		if obs != nil {
			obs.Round(rounds, poly.Halfspaces)
		}
		cur, err = a.safeRound(rctx, poly, geo, eps)
		if rsp != nil {
			rsp.SetBool("error", err != nil)
			rsp.End()
		}
		if err != nil {
			return fail(err)
		}
	}
	if cur.degraded {
		return degrade(cur.reason)
	}
	if !cur.terminal && rounds >= a.cfg.MaxRounds {
		return degrade("round cap reached without the Lemma-9 stop")
	}
	idx := a.ds.TopPoint(cur.mid)
	return core.Result{
		PointIndex:      idx,
		Point:           a.ds.Points[idx],
		Rounds:          rounds,
		Trace:           qas,
		PanicsRecovered: recovered,
	}, nil
}
