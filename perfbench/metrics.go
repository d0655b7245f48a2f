package main

import (
	"runtime"
	"strings"
	"syscall"
	"time"

	"isrl/internal/obs"
	"isrl/internal/repl"
)

// metricDef names one reported metric. BENCHMARK.json carries the same
// names, units and directions; TestBenchmarkJSONMatches keeps them equal.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the service sees, reported with
// tracing off. Each carries a bound in BENCHMARK.json, so each must repeat
// across runs of the same code. On a shared host the speed of the same code
// drifts by more than any bound allows, so rates, latencies and CPU time
// are reported per layer, and only set-up time is timed here.
var endToEnd = []metricDef{
	{"rounds_per_session", "rounds", "lower"},
	{"regret_within_eps", "ratio", "higher"},
	{"alloc_kb_per_answer", "KiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the single-layer metrics, reported from the traced window,
// and the user-facing rate, latencies and CPU cost, too unsteady on a
// shared host to carry a bound, reported from the untraced window of the
// same run.
var perLayer = []metricDef{
	{"answers_per_s", "1/s", "higher"},
	{"answer_ms.p50", "ms", "lower"},
	{"answer_ms.p99", "ms", "lower"},
	{"create_ms.p50", "ms", "lower"},
	{"create_ms.p99", "ms", "lower"},
	{"cpu_ms_per_answer", "ms", "lower"},
	{"error_ratio", "ratio", "lower"},
	{"client.retries_per_op", "1/op", "lower"},
	{"client.overhead_ms.p50", "ms", "lower"},
	{"client.self_ms_per_answer", "ms", "lower"},
	{"server.answer_ms.p50", "ms", "lower"},
	{"server.answer_ms.p99", "ms", "lower"},
	{"server.create_ms.p50", "ms", "lower"},
	{"server.get_ms.p50", "ms", "lower"},
	{"server.shed_per_op", "1/op", "lower"},
	{"server.self_ms_per_answer", "ms", "lower"},
	{"ea.round_ms.p50", "ms", "lower"},
	{"ea.round_ms.p99", "ms", "lower"},
	{"ea.first_question_ms.p50", "ms", "lower"},
	{"aa.round_ms.p50", "ms", "lower"},
	{"aa.round_ms.p99", "ms", "lower"},
	{"aa.first_question_ms.p50", "ms", "lower"},
	{"algo.self_ms_per_answer", "ms", "lower"},
	{"oracle.wait_ms.p50", "ms", "lower"},
	{"geom.lp_solves_per_answer", "1/answer", "lower"},
	{"geom.lp_solve_ms_per_answer", "ms", "lower"},
	{"geom.sample_calls_per_answer", "1/answer", "lower"},
	{"geom.sample_ms_per_answer", "ms", "lower"},
	{"geom.vertex_enums_per_answer", "1/answer", "lower"},
	{"geom.vertices_ms_per_answer", "ms", "lower"},
	{"geom.busy_ms_per_answer", "ms", "lower"},
	{"geom.inc.clips_per_answer", "1/answer", "lower"},
	{"geom.inc.probe_cache_hits_per_answer", "1/answer", "higher"},
	{"lp.warm.solves_per_answer", "1/answer", "lower"},
	{"lp.warm.pivots_per_answer", "1/answer", "lower"},
	{"lp.warm.cold_per_answer", "1/answer", "lower"},
	{"core.max_regret_ms_per_answer", "ms", "lower"},
	{"par.do_tasks_per_answer", "1/answer", "lower"},
	{"par.inline_runs_per_answer", "1/answer", "lower"},
	{"dataset.build_s", "s", "lower"},
	{"rl.train_s", "s", "lower"},
	{"wal.open_s", "s", "lower"},
	{"wal.appends_per_answer", "1/answer", "lower"},
	{"wal.fsyncs_per_answer", "1/answer", "lower"},
	{"wal.fsync_ms.p50", "ms", "lower"},
	{"wal.fsync_ms.p99", "ms", "lower"},
	{"wal.fsync_busy_share", "ratio", "lower"},
	{"wal.busy_ms_per_answer", "ms", "lower"},
	{"repl.records_per_batch", "records", "higher"},
	{"repl.bytes_per_answer", "B", "lower"},
	{"repl.lag_records.max", "records", "lower"},
	{"repl.catchup_ms", "ms", "lower"},
	{"runtime.gc_runs_per_1k_answers", "1/1000", "lower"},
	{"trace.overhead_answers_per_s", "1/s", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// Registry names read around each window.
var (
	windowCounters = []string{
		"client.retries",
		"server.shed.max_sessions", "server.shed.queue_full", "server.shed.draining",
		"geom.lp_solves", "geom.sample_calls", "geom.vertex_enums",
		"geom.inc.clips", "geom.inc.probe_cache_hits",
		"lp.warm.solves", "lp.warm.pivots", "lp.warm.cold",
		"par.do_tasks", "par.inline_runs",
		"wal.appends", "wal.fsyncs",
	}
	windowHists = []string{
		"geom.lp_solve_ms", "geom.sample_ms", "geom.vertices_ms",
		"core.max_regret_ms", "wal.fsync_ms",
	}
)

// measured is one window of load with everything read around it.
type measured struct {
	log     userLog
	elapsed time.Duration
	cpu     time.Duration // CPU time of the whole process
	reg     window
	alloc   uint64 // bytes allocated by the whole process
	gcs     uint32
	repl    repl.Stats // primary's shipping counters over the window
	lagMax  int64
	catchup time.Duration
}

func (m measured) answersPerS() float64 {
	return ratio(float64(len(m.log.answerMS)), m.elapsed.Seconds())
}

// endToEndMetrics computes the user-facing metrics of an untraced window.
// quota holds the window's fixed set of sessions.
func endToEndMetrics(m measured, quota []outcome, setups []setupTimes) map[string]float64 {
	a := float64(len(m.log.answerMS))
	return map[string]float64{
		"rounds_per_session":  meanRounds(quota),
		"regret_within_eps":   withinEps(quota),
		"alloc_kb_per_answer": ratio(float64(m.alloc)/1024, a),
		"setup_s":             medianSetup(setups, func(s setupTimes) float64 { return s.Total }),
	}
}

// perLayerMetrics computes the single-layer metrics of a traced window;
// plain is the untraced window the tracing overhead is measured against.
func perLayerMetrics(m, plain measured, setups []setupTimes, attempted, failed int) map[string]float64 {
	a := float64(len(m.log.answerMS))
	ops := float64(m.log.ops)
	per := func(name string) float64 { return ratio(float64(m.reg.count(name)), a) }
	msPer := func(name string) float64 { return ratio(m.reg.sum(name), a) }
	sp := analyzeSpans(m.log.spans)
	fsyncBounds := obs.LatencyBuckets()
	out := map[string]float64{
		"answers_per_s":                        plain.answersPerS(),
		"answer_ms.p50":                        median(plain.log.answerMS).Value,
		"answer_ms.p99":                        tail(plain.log.answerMS, 0.99).Value,
		"create_ms.p50":                        median(plain.log.createMS).Value,
		"cpu_ms_per_answer":                    ratio(float64(plain.cpu)/float64(time.Millisecond), float64(len(plain.log.answerMS))),
		"create_ms.p99":                        tail(plain.log.createMS, 0.99).Value,
		"error_ratio":                          ratio(float64(failed), float64(attempted)),
		"client.retries_per_op":                ratio(float64(m.reg.count("client.retries")), ops),
		"client.overhead_ms.p50":               median(sp.overheadMS).Value,
		"client.self_ms_per_answer":            ratio(sp.self["client"], a),
		"server.answer_ms.p50":                 median(sp.serverMS["answer"]).Value,
		"server.answer_ms.p99":                 tail(sp.serverMS["answer"], 0.99).Value,
		"server.create_ms.p50":                 median(sp.serverMS["create"]).Value,
		"server.get_ms.p50":                    median(sp.serverMS["get"]).Value,
		"server.self_ms_per_answer":            ratio(sp.self["server"], a),
		"algo.self_ms_per_answer":              ratio(sp.self["algo"], a),
		"oracle.wait_ms.p50":                   median(sp.computeMS["oracle.wait"]).Value,
		"geom.lp_solves_per_answer":            per("geom.lp_solves"),
		"geom.lp_solve_ms_per_answer":          msPer("geom.lp_solve_ms"),
		"geom.sample_calls_per_answer":         per("geom.sample_calls"),
		"geom.sample_ms_per_answer":            msPer("geom.sample_ms"),
		"geom.vertex_enums_per_answer":         per("geom.vertex_enums"),
		"geom.vertices_ms_per_answer":          msPer("geom.vertices_ms"),
		"geom.busy_ms_per_answer":              msPer("geom.vertices_ms") + msPer("geom.sample_ms"),
		"geom.inc.clips_per_answer":            per("geom.inc.clips"),
		"geom.inc.probe_cache_hits_per_answer": per("geom.inc.probe_cache_hits"),
		"lp.warm.solves_per_answer":            per("lp.warm.solves"),
		"lp.warm.pivots_per_answer":            per("lp.warm.pivots"),
		"lp.warm.cold_per_answer":              per("lp.warm.cold"),
		"core.max_regret_ms_per_answer":        msPer("core.max_regret_ms"),
		"par.do_tasks_per_answer":              per("par.do_tasks"),
		"par.inline_runs_per_answer":           per("par.inline_runs"),
		"dataset.build_s":                      medianSetup(setups, func(s setupTimes) float64 { return s.Build }),
		"rl.train_s":                           medianSetup(setups, func(s setupTimes) float64 { return s.Train }),
		"wal.open_s":                           medianSetup(setups, func(s setupTimes) float64 { return s.Open }),
		"wal.appends_per_answer":               per("wal.appends"),
		"wal.fsyncs_per_answer":                per("wal.fsyncs"),
		"wal.fsync_ms.p50":                     m.reg.histTail("wal.fsync_ms", fsyncBounds, 0.5).Value,
		"wal.fsync_ms.p99":                     m.reg.histTail("wal.fsync_ms", fsyncBounds, 0.99).Value,
		"wal.fsync_busy_share":                 ratio(m.reg.sum("wal.fsync_ms"), float64(m.elapsed.Milliseconds())),
		"wal.busy_ms_per_answer":               msPer("wal.fsync_ms"),
		"repl.records_per_batch":               ratio(float64(m.repl.RecordsSent), float64(m.repl.BatchesSent)),
		"repl.bytes_per_answer":                ratio(float64(m.repl.BytesSent), a),
		"repl.lag_records.max":                 float64(m.lagMax),
		"repl.catchup_ms":                      float64(m.catchup) / float64(time.Millisecond),
		"runtime.gc_runs_per_1k_answers":       ratio(float64(m.gcs)*1000, a),
		"trace.overhead_answers_per_s":         plain.answersPerS() - m.answersPerS(),
		"trace.overhead_share":                 ratio(plain.answersPerS()-m.answersPerS(), plain.answersPerS()),
	}
	shed := m.reg.count("server.shed.max_sessions") + m.reg.count("server.shed.queue_full") + m.reg.count("server.shed.draining")
	out["server.shed_per_op"] = ratio(float64(shed), ops)
	for _, algo := range []string{"ea", "aa"} {
		out[algo+".round_ms.p50"] = median(sp.computeMS[algo+".round"]).Value
		out[algo+".round_ms.p99"] = tail(sp.computeMS[algo+".round"], 0.99).Value
		out[algo+".first_question_ms.p50"] = median(sp.computeMS[algo+".first_question"]).Value
	}
	return out
}

func medianSetup(setups []setupTimes, part func(setupTimes) float64) float64 {
	vals := make([]float64, len(setups))
	for i, s := range setups {
		vals[i] = part(s)
	}
	return median(vals).Value
}

// spanStats is what the traced window's spans say about each layer.
type spanStats struct {
	serverMS   map[string][]float64 // server.handle durations by route
	computeMS  map[string][]float64 // algorithm and oracle spans by name
	overheadMS []float64            // client call minus its one server handling
	self       map[string]float64   // ms of self time by layer: client, server, algo
}

// analyzeSpans attributes the traced window's time to layers. A client
// operation's children are the server handlings tagged with its span id; a
// server handling's children are the algorithm compute spans of the same
// session that overlap it (the round an answer triggers runs while the
// handler waits for the next question). Algorithm spans have no measured
// children, so their self time is their duration.
func analyzeSpans(spans []span) spanStats {
	st := spanStats{serverMS: map[string][]float64{}, computeMS: map[string][]float64{}, self: map[string]float64{}}
	byParent := map[uint64][]span{}
	computeBySID := map[string][]interval{}
	var clientOps, handles []span
	for _, s := range spans {
		ms := float64(s.End-s.Start) / 1e6
		switch {
		case s.Name == "client.op":
			clientOps = append(clientOps, s)
		case s.Name == "server.handle":
			handles = append(handles, s)
			byParent[s.Parent] = append(byParent[s.Parent], s)
			st.serverMS[s.Op] = append(st.serverMS[s.Op], ms)
		case s.Name == "oracle.wait":
			st.computeMS[s.Name] = append(st.computeMS[s.Name], ms)
		case strings.HasSuffix(s.Name, ".round") || strings.HasSuffix(s.Name, ".first_question"):
			st.computeMS[s.Name] = append(st.computeMS[s.Name], ms)
			computeBySID[s.SID] = append(computeBySID[s.SID], s.interval())
			st.self["algo"] += ms
		}
	}
	for _, c := range clientOps {
		kids := byParent[c.ID]
		ivs := make([]interval, len(kids))
		for i, k := range kids {
			ivs[i] = k.interval()
		}
		st.self["client"] += float64(selfTime(c.interval(), ivs)) / 1e6
		if len(kids) == 1 {
			st.overheadMS = append(st.overheadMS, float64(c.End-c.Start-(kids[0].End-kids[0].Start))/1e6)
		}
	}
	for _, h := range handles {
		st.self["server"] += float64(selfTime(h.interval(), computeBySID[h.SID])) / 1e6
	}
	return st
}

// readMem returns the process's cumulative allocated bytes and GC count.
// cpuTime is the CPU time the process has used, user and system. The
// kernel leaves out time the hypervisor gave to other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMem() (uint64, uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.NumGC
}
