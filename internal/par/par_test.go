package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		defer SetMaxWorkers(SetMaxWorkers(workers))
		for _, n := range []int{0, 1, 3, 100} {
			counts := make([]int32, n)
			Do(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// Results written into index-addressed slots must be identical regardless
// of worker count — the merge-order determinism rule every caller relies on.
func TestDoOrderedResultsDeterministic(t *testing.T) {
	compute := func(workers int) []float64 {
		defer SetMaxWorkers(SetMaxWorkers(workers))
		out := make([]float64, 64)
		Do(len(out), func(i int) { out[i] = float64(i * i) })
		return out
	}
	one := compute(1)
	many := compute(runtime.GOMAXPROCS(0) + 3)
	for i := range one {
		if one[i] != many[i] {
			t.Fatalf("slot %d: workers=1 got %v, many %v", i, one[i], many[i])
		}
	}
}

// A worker panic must surface as *TaskPanic in the caller after all other
// tasks drain — never a deadlock, never a lost goroutine.
func TestDoRepanicsInCaller(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(4))
	var done atomic.Int32
	var got *TaskPanic
	func() {
		defer func() {
			r := recover()
			tp, ok := r.(*TaskPanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want *TaskPanic", r, r)
			}
			got = tp
		}()
		Do(32, func(i int) {
			if i == 5 {
				panic("boom")
			}
			done.Add(1)
		})
	}()
	if got == nil || got.Index != 5 || got.Value != "boom" {
		t.Fatalf("TaskPanic = %+v", got)
	}
	if got.Error() == "" || len(got.Stack) == 0 {
		t.Fatalf("TaskPanic missing error text or stack")
	}
	if n := done.Load(); n != 31 {
		t.Fatalf("only %d of 31 non-panicking tasks completed", n)
	}
}

func TestSetMaxWorkersRoundTrip(t *testing.T) {
	orig := SetMaxWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers = %d, want 3", Workers())
	}
	if prev := SetMaxWorkers(orig); prev != 3 {
		t.Fatalf("previous = %d, want 3", prev)
	}
}
