package bench

import (
	"net/http"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval recorded by the benchmark around a call
// into the program. Spans of one request share Trace; Parent is the id
// of the enclosing span (0 for a root). Times are nanoseconds since the
// recorder's origin.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Spans holds spans in memory until the run writes them out. A nil
// *Spans records nothing, so untraced runs pass nil.
type Spans struct {
	origin time.Time
	mu     sync.Mutex
	list   []Span
}

// NewSpans returns an empty recorder whose clock starts now.
func NewSpans() *Spans { return &Spans{origin: time.Now()} }

// Add records a finished span and returns its id (0 on a nil recorder).
func (s *Spans) Add(name, trace string, parent int, start, end time.Time) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	s.list = append(s.list, Span{ID: id, Parent: parent, Name: name, Trace: trace,
		Start: start.Sub(s.origin).Nanoseconds(), End: end.Sub(s.origin).Nanoseconds()})
	return id
}

// List returns a copy of the recorded spans.
func (s *Spans) List() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Span(nil), s.list...)
}

// Timings collects the durations of HTTP calls by route class, in
// milliseconds, with a count of all calls and of failed ones.
type Timings struct {
	spans *Spans
	mu    sync.Mutex
	ms    map[string][]float64
	calls int
	fails int
}

// NewTimings returns an empty collector that also records a span per
// call into spans (which may be nil).
func NewTimings(spans *Spans) *Timings {
	return &Timings{spans: spans, ms: make(map[string][]float64)}
}

func (t *Timings) add(kind string, r *http.Request, start time.Time, failed bool) {
	end := time.Now()
	class, job := routeClass(r.URL.Path)
	t.spans.Add(kind+":"+class, job, 0, start, end)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ms[class] = append(t.ms[class], float64(end.Sub(start).Nanoseconds())/1e6)
	t.calls++
	if failed {
		t.fails++
	}
}

// Samples returns the durations recorded for one route class.
func (t *Timings) Samples(class string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.ms[class]...)
}

// Counts returns how many calls were timed and how many failed.
func (t *Timings) Counts() (calls, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls, t.fails
}

// routeClass names the cluster route a path belongs to ("register",
// "poll", "heartbeat", "events", "result", "traces", ...) and, for
// per-job routes, the job id.
func routeClass(path string) (class, job string) {
	rest, ok := strings.CutPrefix(path, "/cluster/v1/")
	if !ok {
		return "service", ""
	}
	parts := strings.Split(rest, "/")
	if parts[0] == "jobs" && len(parts) == 3 {
		return parts[2], parts[1]
	}
	return parts[0], ""
}

// TimedTransport times each round trip through next. A transport error
// or a 5xx response counts as failed. Requests and responses pass
// through untouched.
type TimedTransport struct {
	Next http.RoundTripper
	T    *Timings
}

// RoundTrip implements http.RoundTripper.
func (tt TimedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := tt.Next.RoundTrip(req)
	tt.T.add("rpc", req, start, err != nil || resp.StatusCode >= 500)
	return resp, err
}

// TimedHandler times each request next serves, from the call to the
// handler's return. The ResponseWriter is passed on unwrapped.
func TimedHandler(next http.Handler, t *Timings) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add("handler", r, start, false)
	})
}
