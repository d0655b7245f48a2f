package aa

import (
	"math/rand"
	"testing"

	"isrl/internal/core"
	"isrl/internal/fault"
)

// An LP panic injected while a scratch-geometry round probes candidate cuts
// must flow through safeRound's core.Guard into a Degraded result: the
// process survives and the session still answers.
func TestChaosInjectedLPPanicOnScratchProbeDegrades(t *testing.T) {
	ds := testData(t, 300, 3, 61)
	// Only the scratch path solves a fresh LP per probe; the incremental
	// engine's warm solver answers most probes from its cache.
	cfg := smallCfg()
	cfg.ScratchGeometry = true
	a := New(ds, 0.1, cfg, rand.New(rand.NewSource(62)))
	// After skips the session's first serial LPs (inner ball, outer rect) so
	// the armed panic lands during the feasibility probes.
	fault.Install(fault.NewPlan(63).Set(fault.PointLPSolve, fault.Spec{PanicProb: 1, After: 12}))
	defer fault.Install(nil)
	res, err := a.Run(ds, core.SimulatedUser{Utility: []float64{0.3, 0.4, 0.3}}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatalf("expected degraded result, got %+v", res)
	}
	if res.PanicsRecovered == 0 {
		t.Fatal("expected at least one contained panic")
	}
	if res.Point == nil {
		t.Fatal("best-effort result missing a point")
	}
}
