// Command perfbench is the end-to-end serving benchmark. It builds the whole
// serving stack in process — dataset, trained EA or AA agent, fsyncing
// journal, optional hot standby, server behind a loopback HTTP listener —
// and drives it through the Go client with closed-loop simulated users, one
// per CPU and no think time. With -trace 0 it reports the metrics that
// repeat across runs on a shared host: questions per session, regret,
// allocation and set-up time. With -trace 1 it reports the answer rate,
// latencies and CPU cost of an untraced window and, from a second, traced
// window, where the time goes layer by layer.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ea-anti-d4 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is a report
// with the host, sample counts and the checks made. Every finished session
// is checked against its user's utility, and a sample is replayed in
// process; any failure makes correct false and the exit status 1. See
// README.md for the metrics and workloads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"isrl/internal/obs"
)

const (
	setupRuns  = 3                 // set-ups per run; setup_s is their median
	replayed   = 32                // quota sessions re-run in process per run
	catchupMax = 10 * time.Second  // longest the standby may take to catch up
	runLimit   = 170 * time.Second // a run must end within three minutes
	outDir     = ".bench_out"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload name: ea-anti-d4, aa-anti-d4 or journal-repl")
		seed    = flag.Int64("seed", 1, "workload seed: picks the simulated users and session seeds")
		seconds = flag.Int("seconds", 10, "seconds of measured load; -trace 1 splits them between an untraced and a traced window")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced window")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		flag.Usage()
		return 2
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", runLimit)
		os.Exit(1)
	})
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range res.Report.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", p)
	}
	report, err := json.Marshal(map[string]any{"report": res.Report})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(report))
	fmt.Println(string(line))
	if !res.Result.Correct {
		return 1
	}
	return 0
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is everything else worth keeping about a run: where it ran, how
// many samples each percentile rests on, and what was checked.
type report struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Seconds  float64             `json:"seconds"`
	Traced   bool                `json:"traced"`
	Host     host                `json:"host"`
	Setups   []setupTimes        `json:"setups"`
	Samples  map[string]quantile `json:"percentiles"`
	Quota    quotaReport         `json:"quota"`
	Replayed int                 `json:"replayed_sessions"`
	Worst    float64             `json:"worst_regret"`
	Problems []string            `json:"problems,omitempty"`
}

// quotaReport is the fixed set of sessions a run at a seed always
// completes: its answers and rounds repeat exactly at that seed.
type quotaReport struct {
	First    int     `json:"first_session"`
	Sessions int     `json:"sessions"`
	Answers  int     `json:"answers"`
	Rounds   float64 `json:"rounds_per_session"`
}

type output struct {
	Result result
	Report report
}

// bench runs one workload: set-ups, warm-up, an untraced window and, when
// traced, a traced window; then the checks and the metrics. A traced run
// splits length between its two windows. Outputs go to dir.
func bench(w workload, seed int64, length time.Duration, traced bool, dir string) (out output, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	t := newTracer()
	var st *stack
	var setups []setupTimes
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return out, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
		}
		s, tm, err := startStack(w, seed, dir, t, logger)
		if err != nil {
			return out, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		st = s
		setups = append(setups, tm)
	}
	defer func() {
		if cerr := st.close(); cerr != nil && err == nil {
			err = fmt.Errorf("tear down: %w", cerr)
		}
	}()

	users := runtime.NumCPU()
	l := newLoad(w, seed, st, t, users)
	defer l.hc.CloseIdleConnections()
	rep := report{Workload: w.name, Seed: seed, Seconds: length.Seconds(), Traced: traced,
		Host: hostInfo(st.dir, users), Setups: setups, Samples: map[string]quantile{}}
	var problems []string
	attempted, failed := 0, 0
	tally := func(m userLog) {
		attempted += m.ops
		failed += m.failures
		problems = append(problems, m.problems...)
	}

	tally(l.run(w.warm, 0).merge())
	window := length
	if traced {
		window = length / 2
	}
	plain := l.measure(w.quota, window, false)
	tally(plain.log)
	quotaSessions, complete := quota(plain.log.sessions, w.warm+1, w.quota)
	if !complete {
		problems = append(problems, fmt.Sprintf("window finished %d of its %d quota sessions", len(quotaSessions), w.quota))
	}
	rep.Quota = quotaReport{First: w.warm + 1, Sessions: len(quotaSessions), Rounds: meanRounds(quotaSessions)}
	for _, o := range quotaSessions {
		rep.Quota.Answers += o.rounds
	}
	rep.Worst = worstRegret(plain.log.sessions)

	var tracedM measured
	if traced {
		t.on.Store(true)
		tracedM = l.measure(0, window, true)
		t.on.Store(false)
		tally(tracedM.log)
		if err := writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, seed)), tracedM.log.spans); err != nil {
			return out, err
		}
	}
	rep.Replayed = min(replayed, len(quotaSessions))
	if msg := l.replay(quotaSessions[:rep.Replayed]); msg != "" {
		problems = append(problems, msg)
	}
	if shed := l.shed.Load(); shed > 0 {
		problems = append(problems, fmt.Sprintf("%d shed responses (429/503)", shed))
		failed += int(shed)
	}
	if plain.catchup < 0 || tracedM.catchup < 0 {
		problems = append(problems, "standby did not catch up")
	}

	var metrics map[string]float64
	defs := endToEnd
	if traced {
		defs = perLayer
		metrics = perLayerMetrics(tracedM, plain, setups, attempted, failed)
		sp := analyzeSpans(tracedM.log.spans)
		rep.Samples["answer_ms.p50"] = median(plain.log.answerMS)
		rep.Samples["create_ms.p50"] = median(plain.log.createMS)
		rep.Samples["answer_ms.p99"] = tail(plain.log.answerMS, 0.99)
		rep.Samples["create_ms.p99"] = tail(plain.log.createMS, 0.99)
		rep.Samples["server.answer_ms.p99"] = tail(sp.serverMS["answer"], 0.99)
		rep.Samples["wal.fsync_ms.p99"] = tracedM.reg.histTail("wal.fsync_ms", obs.LatencyBuckets(), 0.99)
		for _, algo := range []string{"ea", "aa"} {
			rep.Samples[algo+".round_ms.p99"] = tail(sp.computeMS[algo+".round"], 0.99)
		}
	} else {
		metrics = endToEndMetrics(plain, quotaSessions, setups)
	}
	out.Result = result{Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Result.Metrics[d.name] = value{Value: metrics[d.name], Unit: d.unit}
	}
	out.Result.Correct = failed == 0 && len(problems) == 0
	rep.Problems = problems
	out.Report = rep
	return out, writeJSON(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, btoi(traced))), out)
}

// measure runs one window of load and reads the registry, the allocator
// and the standby around it. It first collects garbage, so every window
// starts from the same heap state, and flushes dirty pages, so writes from
// set-up (and from building the benchmark) are not written back during the
// window, where they would slow the journal's fsyncs.
func (l *load) measure(minSessions int, length time.Duration, sampleLag bool) measured {
	runtime.GC()
	syscall.Sync()
	before := takeSnapshot(obs.Default(), windowCounters, windowHists)
	alloc0, gcs0 := readMem()
	cpu0 := cpuTime()
	repl0 := l.st.replStats()
	var m measured
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if sampleLag && l.st.primary != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				m.lagMax = max(m.lagMax, l.st.lag())
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
	}
	p := l.run(minSessions, length)
	close(stop)
	wg.Wait()
	m.cpu = cpuTime() - cpu0
	m.catchup = l.catchup()
	alloc1, gcs1 := readMem()
	m.log = p.merge()
	m.log.spans = append(m.log.spans, l.t.take()...)
	m.elapsed = p.elapsed
	m.reg = window{before: before, after: takeSnapshot(obs.Default(), windowCounters, windowHists)}
	m.alloc, m.gcs = alloc1-alloc0, gcs1-gcs0
	r1 := l.st.replStats()
	m.repl.RecordsSent = r1.RecordsSent - repl0.RecordsSent
	m.repl.BatchesSent = r1.BatchesSent - repl0.BatchesSent
	m.repl.BytesSent = r1.BytesSent - repl0.BytesSent
	return m
}

// catchup waits until the standby has acknowledged every record and
// returns how long that took after the window's last answer, or -1 if it
// did not happen within catchupMax.
func (l *load) catchup() time.Duration {
	if l.st.primary == nil {
		return 0
	}
	begin := time.Now()
	for l.st.lag() > 0 {
		if time.Since(begin) > catchupMax {
			return -1
		}
		time.Sleep(50 * time.Microsecond)
	}
	return time.Since(begin)
}

func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
