package aa

import (
	"math/rand"
	"slices"
	"testing"

	"isrl/internal/core"
)

// A seeded AA session is pinned: same point, rounds and question trace on
// both geometry paths. The scratch path probes candidates with fresh LPs,
// the incremental path through the warm solver; either way the accept loop
// must ask the same questions.
func TestRunGolden(t *testing.T) {
	want := []core.QA{
		{I: 7, J: 8, PreferredI: false},
		{I: 36, J: 62, PreferredI: true},
		{I: 13, J: 48, PreferredI: false},
		{I: 4, J: 56, PreferredI: true},
		{I: 4, J: 86, PreferredI: true},
		{I: 28, J: 135, PreferredI: true},
	}
	for _, scratch := range []bool{false, true} {
		ds := testData(t, 300, 3, 51)
		cfg := smallCfg()
		cfg.ScratchGeometry = scratch
		a := New(ds, 0.1, cfg, rand.New(rand.NewSource(52)))
		res, err := a.Run(ds, core.SimulatedUser{Utility: []float64{0.2, 0.45, 0.35}}, 0.1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.PointIndex != 8 || res.Rounds != 6 || res.Degraded || !slices.Equal(res.Trace, want) {
			t.Fatalf("scratch=%v: point %d in %d rounds (degraded %v), trace %+v; want point 8 in 6 rounds, trace %+v",
				scratch, res.PointIndex, res.Rounds, res.Degraded, res.Trace, want)
		}
	}
}
