package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"isrl/internal/aa"
	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/ea"
	"isrl/internal/geom"
	"isrl/internal/repl"
	"isrl/internal/server"
	"isrl/internal/wal"
)

// Fixed inputs shared by every workload: the regret threshold, the dataset
// and training seeds, and the training length. The workload seed varies
// only the simulated users and the per-session algorithm seeds, so a
// workload always serves the same dataset with the same trained agent.
const (
	eps          = 0.1
	dataSeed     = 1
	trainSeed    = 7
	episodes     = 100
	replSeed     = 3
	readyTimeout = 10 * time.Second
)

// workload is one named configuration of the serving stack and its load.
type workload struct {
	name     string
	why      string
	algo     string // "ea" or "aa"
	n, d     int    // anticorrelated dataset size and dimension
	follower bool   // replicate the journal to an in-process hot standby
	getEvery int    // GET the session before every getEvery-th round (0: never)
	warm     int    // sessions run before the measured window
	quota    int    // sessions the measured window completes at least
}

// workloads lists every runnable workload. BENCHMARK.json lists the ones
// the benchmark is judged on; journal-repl is left out there because its
// fsync-bound throughput was not steady on a shared disk (see README.md).
var workloads = []workload{
	{
		name: "ea-anti-d4", algo: "ea", n: 10000, d: 4, follower: true, getEvery: 2, warm: 200, quota: 1000,
		why: "EA on anticorrelated n=10000 d=4 with a hot standby and a GET before every second answer: round compute dominates",
	},
	{
		name: "aa-anti-d4", algo: "aa", n: 10000, d: 4, warm: 300, quota: 1000,
		why: "AA on the same data, no standby: candidate selection (top-K sort, pair dedupe) and warm-started LP dominate, no sampling",
	},
	{
		name: "journal-repl", algo: "ea", n: 500, d: 3, follower: true, getEvery: 2, warm: 500, quota: 1500,
		why: "EA on n=500 d=3 with a hot standby and a GET before every second answer: fsync, HTTP/JSON and WAL shipping dominate",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sessionBase is the server's per-session seed base for a workload seed:
// session sN runs its algorithm with seed sessionBase+N.
func sessionBase(seed int64) int64 { return seed << 24 }

// stack is one running serving stack: dataset, trained algorithm factory,
// journal, server (and standby) behind a loopback HTTP listener.
type stack struct {
	ds      *dataset.Dataset
	factory server.AlgorithmFactory // the unwrapped factory, for replay checks
	base    int64
	dir     string
	journal *wal.Log
	standby *wal.Log
	primary *repl.Node
	follow  *repl.Node
	http    *http.Server
	served  chan error
	url     string
}

// setupTimes are the parts of one set-up, in seconds.
type setupTimes struct {
	Total float64 `json:"total_s"`
	Build float64 `json:"build_s"`
	Train float64 `json:"train_s"`
	Open  float64 `json:"open_s"`
}

// startStack builds a stack in a fresh directory under root and returns once
// the server has answered its first request.
func startStack(w workload, seed int64, root string, t *tracer, logger *slog.Logger) (*stack, setupTimes, error) {
	var tm setupTimes
	start := time.Now()
	s := &stack{base: sessionBase(seed)}

	ds, err := dataset.Generate("anti", rand.New(rand.NewSource(dataSeed)), w.n, w.d)
	if err != nil {
		return nil, tm, err
	}
	s.ds = ds.Skyline()
	tm.Build = time.Since(start).Seconds()

	mark := time.Now()
	if s.factory, err = train(w.algo, s.ds); err != nil {
		return nil, tm, err
	}
	tm.Train = time.Since(mark).Seconds()

	mark = time.Now()
	if s.dir, err = os.MkdirTemp(root, w.name+"-"); err != nil {
		return nil, tm, err
	}
	if s.journal, _, err = wal.Open(filepath.Join(s.dir, "primary"), wal.Options{Logger: logger}); err != nil {
		return nil, tm, s.fail(err)
	}
	if w.follower {
		if s.standby, _, err = wal.Open(filepath.Join(s.dir, "standby"), wal.Options{Logger: logger}); err != nil {
			return nil, tm, s.fail(err)
		}
	}
	tm.Open = time.Since(mark).Seconds()

	opts := []server.Option{
		server.WithLogger(logger),
		server.WithJournal(s.journal),
		server.WithSessionSeed(s.base),
	}
	if w.follower {
		if s.follow, err = repl.NewFollower(s.standby, "127.0.0.1:0", repl.Options{Seed: replSeed, Logger: logger}); err != nil {
			return nil, tm, s.fail(err)
		}
		s.primary = repl.NewPrimary(s.journal, s.follow.Addr(), repl.Options{Seed: replSeed, Logger: logger})
		opts = append(opts, server.WithReplication(s.primary))
		s.follow.Start()
		s.primary.Start()
	}
	probed := func(sessionSeed int64) core.Algorithm {
		sid := "s" + strconv.FormatInt(sessionSeed-s.base, 10)
		return probedAlgorithm{inner: s.factory(sessionSeed).(core.ContextAlgorithm), sid: sid, t: t}
	}
	srv := server.New(s.ds, eps, probed, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, tm, s.fail(err)
	}
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: serverProbe{inner: srv, t: t}, ReadHeaderTimeout: readyTimeout}
	s.served = make(chan error, 1)
	go func() { s.served <- s.http.Serve(ln) }()
	if err := s.ready(); err != nil {
		return nil, tm, s.fail(err)
	}
	tm.Total = time.Since(start).Seconds()
	return s, tm, nil
}

// train trains the workload's algorithm from the fixed training seed and
// returns a factory that loads the trained agent per session, as the
// service does.
func train(algo string, ds *dataset.Dataset) (server.AlgorithmFactory, error) {
	rng := rand.New(rand.NewSource(trainSeed))
	users := make([][]float64, episodes)
	for i := range users {
		users[i] = geom.SampleSimplex(rng, ds.Dim())
	}
	switch algo {
	case "ea":
		e := ea.New(ds, eps, ea.Config{}, rng)
		if _, err := e.Train(users); err != nil {
			return nil, err
		}
		blob, err := e.Agent().MarshalBinary()
		if err != nil {
			return nil, err
		}
		return func(seed int64) core.Algorithm {
			inst, err := ea.Load(ds, eps, ea.Config{}, blob, rand.New(rand.NewSource(seed)))
			if err != nil {
				panic(fmt.Sprintf("reload trained EA agent: %v", err))
			}
			return inst
		}, nil
	case "aa":
		a := aa.New(ds, eps, aa.Config{}, rng)
		if _, err := a.Train(users); err != nil {
			return nil, err
		}
		blob, err := a.Agent().MarshalBinary()
		if err != nil {
			return nil, err
		}
		return func(seed int64) core.Algorithm {
			inst, err := aa.Load(ds, eps, aa.Config{}, blob, rand.New(rand.NewSource(seed)))
			if err != nil {
				panic(fmt.Sprintf("reload trained AA agent: %v", err))
			}
			return inst
		}, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", algo)
}

// ready waits until the server answers GET /healthz with 200.
func (s *stack) ready() error {
	hc := &http.Client{Timeout: readyTimeout}
	deadline := time.Now().Add(readyTimeout)
	for {
		resp, err := hc.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// lag is the number of journal records the standby has not acknowledged.
func (s *stack) lag() int64 {
	if s.primary == nil {
		return 0
	}
	records, _ := s.primary.Lag()
	return records
}

// replStats is the primary's shipping counters (zero without a standby).
func (s *stack) replStats() repl.Stats {
	if s.primary == nil {
		return repl.Stats{}
	}
	return s.primary.Stats()
}

// fail closes what a failed set-up opened and returns err.
func (s *stack) fail(err error) error {
	return errors.Join(err, s.close())
}

// close stops the listener, the replication nodes and the journals, and
// removes the stack's directory.
func (s *stack) close() error {
	var errs []error
	if s.http != nil {
		errs = append(errs, s.http.Close())
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	for _, n := range []*repl.Node{s.primary, s.follow} {
		if n != nil {
			errs = append(errs, n.Close())
		}
	}
	for _, l := range []*wal.Log{s.journal, s.standby} {
		if l != nil {
			errs = append(errs, l.Close())
		}
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}
