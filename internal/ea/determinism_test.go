package ea

import (
	"math/rand"
	"testing"

	"isrl/internal/core"
	"isrl/internal/par"
)

// A seeded EA session must produce the identical Result — same point, same
// rounds, same question trace — whether the pool runs 1 worker or many:
// the top-point scan, EA's one fan-out, writes each vector's result to its
// own slot.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) core.Result {
		defer par.SetMaxWorkers(par.SetMaxWorkers(workers))
		ds := testData(t, 200, 3, 41)
		e := New(ds, 0.1, smallCfg(), rand.New(rand.NewSource(42)))
		res, err := e.Run(ds, core.SimulatedUser{Utility: []float64{0.55, 0.3, 0.15}}, 0.1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	many := run(8)
	if one.PointIndex != many.PointIndex || one.Rounds != many.Rounds {
		t.Fatalf("workers=1 got point %d in %d rounds; workers=8 got point %d in %d rounds",
			one.PointIndex, one.Rounds, many.PointIndex, many.Rounds)
	}
	if len(one.Trace) != len(many.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(one.Trace), len(many.Trace))
	}
	for i := range one.Trace {
		if one.Trace[i] != many.Trace[i] {
			t.Fatalf("trace entry %d differs: %+v vs %+v", i, one.Trace[i], many.Trace[i])
		}
	}
}
