package main

import (
	"math"
	"testing"

	"isrl/internal/obs"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending: the functions must sort
	}
	return v
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n     int
		want  float64 // requested level
		q     float64 // level reported
		value float64
	}{
		{1000, 0.99, 0.99, 990}, // exactly ten samples above 990
		{2000, 0.99, 0.99, 1980},
		{500, 0.99, 0.98, 490}, // p99 would rest on five samples
		{100, 0.99, 0.90, 90},  // ten beyond the 90th
		{20, 0.99, 0.5, 10},    // never below the median
		{5, 0.99, 0.5, 3},
		{1000, 0.5, 0.5, 500},
	}
	for _, c := range cases {
		got := tail(seq(c.n), c.want)
		if got.N != c.n || math.Abs(got.Q-c.q) > 1e-12 || got.Value != c.value {
			t.Errorf("tail(n=%d, %.2f) = %+v, want q=%.2f value=%v n=%d", c.n, c.want, got, c.q, c.value, c.n)
		}
		if c.n >= 2*tailSamples {
			beyond := 0
			for _, v := range seq(c.n) {
				if v > got.Value {
					beyond++
				}
			}
			if beyond < tailSamples {
				t.Errorf("tail(n=%d) value %v has %d samples beyond it, want ≥ %d", c.n, got.Value, beyond, tailSamples)
			}
		}
	}
	if got := tail(nil, 0.99); got.N != 0 || got.Value != 0 {
		t.Errorf("tail of no samples = %+v, want zero value", got)
	}
	if got := median(seq(9)); got.Value != 5 || got.N != 9 {
		t.Errorf("median(1..9) = %+v, want 5 with n=9", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping counted once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"clipped to parent", []interval{{-50, 10}, {90, 150}}, 80},
		{"outside parent", []interval{{-20, -10}, {100, 120}}, 100},
		{"unsorted chain", []interval{{70, 90}, {10, 30}, {25, 75}}, 20},
		{"covers parent", []interval{{-1, 101}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAnalyzeSpansAttributesLayers(t *testing.T) {
	// One answer: the client call (0-100) holds one server handling
	// (10-90), inside which the session's round runs (20-60) while an
	// oracle wait of another session overlaps nothing of this one.
	spans := []span{
		{Name: "client.op", Op: "answer", ID: 1, SID: "s1", Start: 0, End: 100e6},
		{Name: "server.handle", Op: "answer", ID: 2, Parent: 1, SID: "s1", Start: 10e6, End: 90e6},
		{Name: "ea.round", SID: "s1", Start: 20e6, End: 60e6},
		{Name: "ea.round", SID: "s2", Start: 30e6, End: 80e6},
		{Name: "oracle.wait", SID: "s1", Start: 60e6, End: 130e6},
	}
	st := analyzeSpans(spans)
	for layer, want := range map[string]float64{"client": 20, "server": 40, "algo": 90} {
		if got := st.self[layer]; math.Abs(got-want) > 1e-9 {
			t.Errorf("self[%s] = %v ms, want %v", layer, got, want)
		}
	}
	if len(st.overheadMS) != 1 || st.overheadMS[0] != 20 {
		t.Errorf("client overhead = %v, want [20]", st.overheadMS)
	}
	if got := st.serverMS["answer"]; len(got) != 1 || got[0] != 80 {
		t.Errorf("server answer times = %v, want [80]", got)
	}
}

func TestWindowDeltas(t *testing.T) {
	reg := obs.NewRegistry()
	bounds := obs.LatencyBuckets()
	c := reg.Counter("x.calls")
	h := reg.Histogram("x.ms", bounds)
	// Work before the window (training, set-up) must not count.
	c.Add(1000)
	for i := 0; i < 500; i++ {
		h.Observe(100)
	}
	before := takeSnapshot(reg, []string{"x.calls"}, []string{"x.ms"})
	c.Add(30)
	for i := 0; i < 20; i++ {
		h.Observe(0.5)
	}
	w := window{before: before, after: takeSnapshot(reg, []string{"x.calls"}, []string{"x.ms"})}
	const answers = 10
	if got := ratio(float64(w.count("x.calls")), answers); got != 3 {
		t.Errorf("calls per answer = %v, want 3", got)
	}
	if got := ratio(w.sum("x.ms"), answers); math.Abs(got-1) > 1e-9 {
		t.Errorf("ms per answer = %v, want 1", got)
	}
	// Every in-window observation is 0.5 ms, inside the (0.32, 0.64]
	// bucket; the earlier 100 ms ones must not drag the quantile up.
	q := w.histTail("x.ms", bounds, 0.99)
	if q.N != 20 || q.Q != 0.5 || q.Value <= 0.32 || q.Value > 0.64 {
		t.Errorf("histTail = %+v, want the median of 20 samples in (0.32, 0.64]", q)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", got)
	}
}
