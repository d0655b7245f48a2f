package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"isrl/internal/core"
	"isrl/internal/dataset"
)

// The benchmark's own spans. They are recorded only while tracing is on,
// by wrappers around the public entry points of each layer: the client's
// HTTP transport, the server's http.Handler, and the algorithm and user
// oracle a session runs. The program's own tracer stays off.

// spanHeader carries the client operation's span id to the server wrapper,
// which records its server.handle span as that operation's child.
const spanHeader = "X-Perfbench-Span"

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch. A client call's span is linked to its server handlings by ID and
// Parent. SID links a server handling to the algorithm spans of the same
// session: server spans take it from the URL or the create response,
// algorithm spans from the session's seed.
type span struct {
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	SID    string `json:"sid,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer holds spans in memory until the run ends.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(spans ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// take returns the recorded spans and starts a fresh list.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// spanKey is the context key of the client operation's span id.
type spanKey struct{}

// probeTransport counts shed responses and, while tracing, tags each
// request with its client operation's span id.
type probeTransport struct {
	inner http.RoundTripper
	shed  *atomic.Int64
}

func (p probeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(uint64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	resp, err := p.inner.RoundTrip(req)
	if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
		p.shed.Add(1)
	}
	return resp, err
}

// serverProbe wraps the server's handler and, while tracing, records one
// server.handle span per request.
type serverProbe struct {
	inner http.Handler
	t     *tracer
}

func (h serverProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.t.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := h.t.now()
	cw := &captureWriter{ResponseWriter: w}
	h.inner.ServeHTTP(cw, r)
	end := h.t.now()
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	op, sid := routeOf(r)
	if op == "create" {
		var st struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(cw.body, &st) == nil {
			sid = st.ID
		}
	}
	h.t.add(span{Name: "server.handle", Op: op, ID: h.t.ids.Add(1), Parent: parent, SID: sid, Start: start, End: end})
}

// routeOf names the session route a request takes and the session id in
// its path.
func routeOf(r *http.Request) (op, sid string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case len(parts) == 1 && parts[0] == "sessions":
		return "create", ""
	case len(parts) == 2 && r.Method == http.MethodGet:
		return "get", parts[1]
	case len(parts) == 3 && parts[2] == "answer":
		return "answer", parts[1]
	}
	return "other", ""
}

// captureWriter keeps the response body so the create route's session id
// can be read from it.
type captureWriter struct {
	http.ResponseWriter
	body []byte
}

func (w *captureWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return w.ResponseWriter.Write(b)
}

// probedAlgorithm wraps the algorithm a session runs. Name and the run
// itself are delegated unchanged, so journals and replay see the same
// algorithm; while tracing, the user oracle is wrapped to time each round.
type probedAlgorithm struct {
	inner core.ContextAlgorithm
	sid   string
	t     *tracer
}

func (a probedAlgorithm) Name() string { return a.inner.Name() }

func (a probedAlgorithm) Run(ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	return a.RunContext(context.Background(), ds, user, eps, obs)
}

func (a probedAlgorithm) RunContext(ctx context.Context, ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	if !a.t.on.Load() {
		return a.inner.RunContext(ctx, ds, user, eps, obs)
	}
	u := &probedUser{inner: user, t: a.t, sid: a.sid, prefix: strings.ToLower(a.inner.Name()), mark: a.t.now()}
	res, err := a.inner.RunContext(ctx, ds, u, eps, obs)
	u.endCompute(a.t.now())
	a.t.add(u.spans...)
	return res, err
}

// probedUser times the algorithm from one oracle return to the next oracle
// call (a round of compute) and the wait inside each oracle call.
type probedUser struct {
	inner  core.User
	t      *tracer
	sid    string
	prefix string // "ea" or "aa"
	mark   int64  // when the current compute span began
	asked  bool   // a question has been asked: compute spans are rounds
	spans  []span
}

func (u *probedUser) Prefer(pi, pj []float64) bool {
	call := u.t.now()
	u.endCompute(call)
	ans := u.inner.Prefer(pi, pj)
	ret := u.t.now()
	u.spans = append(u.spans, span{Name: "oracle.wait", SID: u.sid, Start: call, End: ret})
	u.mark = ret
	return ans
}

// endCompute closes the compute span running since mark: the first
// question's before any question was asked, a round's after.
func (u *probedUser) endCompute(end int64) {
	name := u.prefix + ".first_question"
	if u.asked {
		name = u.prefix + ".round"
	}
	u.asked = true
	u.spans = append(u.spans, span{Name: name, SID: u.sid, Start: u.mark, End: end})
}
