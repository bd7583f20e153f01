package bench

import (
	"bytes"
	"crypto/sha256"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// echo answers with the request body's hash followed by a binary
// payload derived from it, so any change to either direction shows.
func echo(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	sum := sha256.Sum256(body)
	w.Header().Set("X-Path", r.URL.Path)
	w.WriteHeader(http.StatusCreated)
	w.Write(sum[:])
	w.Write(bytes.Repeat(sum[:], 100))
}

func roundTrip(t *testing.T, c *http.Client, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

func TestTimingWrappersKeepBytes(t *testing.T) {
	body := make([]byte, 70000)
	for i := range body {
		body[i] = byte(i * 7)
	}
	plain := httptest.NewServer(http.HandlerFunc(echo))
	defer plain.Close()
	spans := NewSpans()
	handlerT, rpcT := NewTimings(spans), NewTimings(spans)
	timed := httptest.NewServer(TimedHandler(http.HandlerFunc(echo), handlerT))
	defer timed.Close()
	tc := &http.Client{Transport: TimedTransport{Next: http.DefaultTransport, T: rpcT}}

	path := "/cluster/v1/jobs/j42/result"
	code0, hdr0, want := roundTrip(t, http.DefaultClient, plain.URL+path, body)
	code1, hdr1, got := roundTrip(t, tc, timed.URL+path, body)
	if code0 != code1 || hdr0.Get("X-Path") != hdr1.Get("X-Path") || !bytes.Equal(want, got) {
		t.Fatalf("wrapped round trip changed the exchange: %d/%q vs %d/%q, bodies equal %v",
			code0, hdr0.Get("X-Path"), code1, hdr1.Get("X-Path"), bytes.Equal(want, got))
	}
	if calls, failed := rpcT.Counts(); calls != 1 || failed != 0 {
		t.Errorf("transport counted %d calls, %d failed", calls, failed)
	}
	if n := len(handlerT.Samples("result")); n != 1 {
		t.Errorf("handler timed %d result calls", n)
	}
	if sp := spans.List(); len(sp) != 2 || sp[0].Trace != "j42" {
		t.Errorf("spans %+v", sp)
	}
}

func TestRouteClass(t *testing.T) {
	for path, want := range map[string][2]string{
		"/cluster/v1/register":         {"register", ""},
		"/cluster/v1/poll":             {"poll", ""},
		"/cluster/v1/heartbeat":        {"heartbeat", ""},
		"/cluster/v1/jobs/j1/events":   {"events", "j1"},
		"/cluster/v1/jobs/j1/result":   {"result", "j1"},
		"/cluster/v1/traces/sha256:ab": {"traces", ""},
		"/v1/jobs":                     {"service", ""},
	} {
		if c, j := routeClass(path); c != want[0] || j != want[1] {
			t.Errorf("routeClass(%q) = %q, %q", path, c, j)
		}
	}
}
