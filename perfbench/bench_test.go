package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestRepeatableAtSeed runs a small stack twice at one seed: both runs
// must pass every check and complete the same quota sessions with the same
// answers and rounds, however the user goroutines interleave.
func TestRepeatableAtSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and serves two stacks")
	}
	w := workload{name: "tiny", algo: "ea", n: 300, d: 3, follower: true, getEvery: 2, warm: 4, quota: 30}
	var quotas []quotaReport
	for i := 0; i < 2; i++ {
		out, err := bench(w, 5, 100*time.Millisecond, i == 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !out.Result.Correct || out.Result.Failed != 0 {
			t.Fatalf("run %d not correct: %+v, problems %v", i, out.Result, out.Report.Problems)
		}
		if out.Report.Quota.Sessions != w.quota || out.Report.Replayed == 0 {
			t.Fatalf("run %d quota %+v, replayed %d", i, out.Report.Quota, out.Report.Replayed)
		}
		quotas = append(quotas, out.Report.Quota)
	}
	if quotas[0] != quotas[1] {
		t.Errorf("quota differs between runs at one seed: %+v vs %+v", quotas[0], quotas[1])
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step: same names, units and directions, and only workloads that exist.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the benchmark %s %s %s",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
