package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"isrl/client"
	"isrl/internal/core"
	"isrl/internal/geom"
)

// utility is the hidden utility vector of session sN under a workload
// seed. It depends on nothing else, so a session's questions, rounds and
// result are fixed by (seed, N) whichever user goroutine drives it.
func utility(seed int64, num, d int) []float64 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(num)))
	return geom.SampleSimplex(rng, d)
}

// outcome is one finished session as the client saw it.
type outcome struct {
	num    int // N of the server-assigned id sN
	rounds int
	index  int
	regret float64
}

// userLog is what one closed-loop user records; each user owns its log.
type userLog struct {
	createMS, answerMS []float64
	ops, failures      int
	problems           []string
	sessions           []outcome
	spans              []span
}

func (u *userLog) fail(format string, args ...any) {
	u.failures++
	if len(u.problems) < 5 {
		u.problems = append(u.problems, fmt.Sprintf(format, args...))
	}
}

// load drives a stack with closed-loop users.
type load struct {
	w     workload
	seed  int64
	st    *stack
	t     *tracer
	users int
	c     *client.Client
	shed  atomic.Int64
	hc    *http.Client
}

func newLoad(w workload, seed int64, st *stack, t *tracer, users int) *load {
	l := &load{w: w, seed: seed, st: st, t: t, users: users}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = users
	l.hc = &http.Client{Transport: probeTransport{inner: tr, shed: &l.shed}}
	l.c = client.New(st.url, client.WithHTTPClient(l.hc))
	return l
}

// phase is one stretch of load: users keep starting sessions until at
// least minSessions were started and minTime has passed, then finish the
// session they are in. Nothing is abandoned mid-session, so every count
// taken around a phase covers whole sessions.
type phase struct {
	logs    []*userLog
	elapsed time.Duration
}

func (l *load) run(minSessions int, minTime time.Duration) phase {
	// The decision to start a session and the count it bumps must be one
	// step: a phase that starts one session too many shifts the ids, and
	// with them the users, of every later session.
	var mu sync.Mutex
	started := 0
	begin := time.Now()
	more := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if started >= minSessions && time.Since(begin) >= minTime {
			return false
		}
		started++
		return true
	}
	logs := make([]*userLog, l.users)
	var wg sync.WaitGroup
	for i := range logs {
		logs[i] = &userLog{}
		wg.Add(1)
		go func(u *userLog) {
			defer wg.Done()
			for more() {
				l.session(u)
			}
		}(logs[i])
	}
	wg.Wait()
	return phase{logs: logs, elapsed: time.Since(begin)}
}

// op runs one client call, timing it and, while tracing, recording its
// span and passing the span id on to the server.
func (l *load) op(u *userLog, name string, call func(ctx context.Context) error) (float64, error) {
	ctx := context.Background()
	var id uint64
	var start int64
	if l.t.on.Load() {
		id = l.t.ids.Add(1)
		ctx = context.WithValue(ctx, spanKey{}, id)
		start = l.t.now()
	}
	begin := time.Now()
	err := call(ctx)
	ms := float64(time.Since(begin)) / float64(time.Millisecond)
	u.ops++
	if id != 0 {
		u.spans = append(u.spans, span{Name: "client.op", Op: name, ID: id, Start: start, End: l.t.now()})
	}
	return ms, err
}

// session runs one whole session: create, answer until done, check the
// result against the user's utility.
func (l *load) session(u *userLog) {
	var s *client.Session
	ms, err := l.op(u, "create", func(ctx context.Context) (err error) {
		s, err = l.c.Create(ctx)
		return err
	})
	if err != nil {
		u.fail("create: %v", err)
		return
	}
	u.createMS = append(u.createMS, ms)
	num, err := strconv.Atoi(strings.TrimPrefix(s.ID(), "s"))
	if err != nil {
		u.fail("session id %q: %v", s.ID(), err)
		return
	}
	truth := core.SimulatedUser{Utility: utility(l.seed, num, l.w.d)}
	for !s.Done() {
		q := s.Question()
		if q == nil {
			u.fail("session %s: no question and not done", s.ID())
			return
		}
		if l.w.getEvery > 0 && q.Round%l.w.getEvery == 0 {
			if _, err := l.op(u, "get", s.Get); err != nil {
				u.fail("get %s: %v", s.ID(), err)
				return
			}
			if r := s.Question(); r == nil || r.Round != q.Round {
				u.fail("get %s: round changed under a read", s.ID())
				return
			}
		}
		prefer := truth.Prefer(q.First, q.Second)
		ms, err := l.op(u, "answer", func(ctx context.Context) error { return s.Answer(ctx, prefer) })
		if err != nil {
			u.fail("answer %s round %d: %v", s.ID(), q.Round, err)
			return
		}
		u.answerMS = append(u.answerMS, ms)
	}
	res, err := s.Result()
	if err != nil {
		u.fail("result %s: %v", s.ID(), err)
		return
	}
	o := outcome{num: num, rounds: res.Rounds, index: res.PointIndex}
	if msg := l.check(res); msg != "" {
		u.fail("session %s: %s", s.ID(), msg)
	} else {
		o.regret = l.st.ds.RegretRatio(res.Point, truth.Utility)
		if bound := l.bound(); o.regret > bound+1e-9 {
			u.fail("session %s: regret %.4f above the %s bound %.4f", s.ID(), o.regret, l.w.algo, bound)
		}
	}
	u.sessions = append(u.sessions, o)
}

// check holds a result to the service's contract: certified (not
// degraded), and a tuple of the served dataset.
func (l *load) check(res *client.Result) string {
	if res.Degraded {
		return "degraded: " + res.DegradedReason
	}
	if res.PointIndex < 0 || res.PointIndex >= l.st.ds.Len() {
		return fmt.Sprintf("point index %d out of range", res.PointIndex)
	}
	want := l.st.ds.Points[res.PointIndex]
	for i := range want {
		if want[i] != res.Point[i] {
			return fmt.Sprintf("point %v is not tuple %d", res.Point, res.PointIndex)
		}
	}
	return ""
}

// bound is the paper's regret guarantee for the workload's algorithm: ε
// for EA, d²ε for AA (Lemma 9).
func (l *load) bound() float64 {
	if l.w.algo == "aa" {
		return float64(l.w.d*l.w.d) * eps
	}
	return eps
}

// replay re-runs finished sessions in process, without HTTP or journal, and
// reports the first whose rounds or returned tuple differ from what the
// service returned. Both runs use the session's seed and utility, so any
// difference is a lost or reordered answer, or non-determinism.
func (l *load) replay(sessions []outcome) string {
	for _, o := range sessions {
		alg := l.st.factory(l.st.base + int64(o.num))
		u := core.SimulatedUser{Utility: utility(l.seed, o.num, l.w.d)}
		res, err := alg.Run(l.st.ds, u, eps, nil)
		if err != nil {
			return fmt.Sprintf("replay s%d: %v", o.num, err)
		}
		if res.Rounds != o.rounds || res.PointIndex != o.index {
			return fmt.Sprintf("replay s%d: %d rounds, tuple %d in process; %d rounds, tuple %d served",
				o.num, res.Rounds, res.PointIndex, o.rounds, o.index)
		}
	}
	return ""
}

// merge folds the phase's user logs into one.
func (p phase) merge() userLog {
	var m userLog
	for _, u := range p.logs {
		m.createMS = append(m.createMS, u.createMS...)
		m.answerMS = append(m.answerMS, u.answerMS...)
		m.ops += u.ops
		m.failures += u.failures
		m.problems = append(m.problems, u.problems...)
		m.sessions = append(m.sessions, u.sessions...)
		m.spans = append(m.spans, u.spans...)
	}
	return m
}

// quota returns the k sessions with the lowest ids, the ones every run at
// a seed finishes, sorted by id, and whether all k are present.
func quota(sessions []outcome, first, k int) ([]outcome, bool) {
	byNum := map[int]outcome{}
	for _, o := range sessions {
		byNum[o.num] = o
	}
	out := make([]outcome, 0, k)
	for n := first; n < first+k; n++ {
		o, ok := byNum[n]
		if !ok {
			return out, false
		}
		out = append(out, o)
	}
	return out, true
}

// meanRounds and withinEps summarize a set of sessions.
func meanRounds(s []outcome) float64 {
	var sum float64
	for _, o := range s {
		sum += float64(o.rounds)
	}
	return ratio(sum, float64(len(s)))
}

func withinEps(s []outcome) float64 {
	var n float64
	for _, o := range s {
		if o.regret <= eps+1e-9 {
			n++
		}
	}
	return ratio(n, float64(len(s)))
}

// worstRegret is the largest regret ratio among s.
func worstRegret(s []outcome) float64 {
	w := 0.0
	for _, o := range s {
		w = math.Max(w, o.regret)
	}
	return w
}
