package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func TestValidName(t *testing.T) {
	for _, ok := range []string{"wall_s", "cache.l2_ns_per_access", "experiments.fig05_s", "a-b.c_9", "9lives"} {
		if !ValidName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "wall s", "p95/ms", "x\n", "é", string(make([]byte, 65))} {
		if ValidName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestMetricListsValidAndUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if !ValidName(m.Name) || seen[m.Name] {
			t.Errorf("metric %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	if len(PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(PerLayer))
	}
}

func TestCollectRejectsMissing(t *testing.T) {
	if _, err := collect(EndToEnd, map[string]float64{"wall_s": 1}); err == nil {
		t.Error("missing metrics were not reported")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload lists the code reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: %q vs %q", i, w.Name, Workloads[i])
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit, Better string }
		code []Metric
	}{{spec.EndToEnd, EndToEnd}, {spec.PerLayer, PerLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].Name || m.Unit != c.code[i].Unit || m.Better != c.code[i].Better {
				t.Errorf("metric %d: %+v vs %+v", i, m, c.code[i])
			}
		}
	}
}

func TestExpectedClusterEqualsLocal(t *testing.T) {
	exp, err := readExpected(filepath.Join("..", "..", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		if exp.Digests[w] == "" {
			t.Errorf("no expected digest for %s", w)
		}
	}
	if exp.Digests["svc-cluster"] != exp.Digests["svc-local"] {
		t.Error("svc-cluster must serve exactly the svc-local payloads")
	}
}

// TestPromQuantileMatchesObs checks that quantiles read back from the
// Prometheus exposition agree with the histogram's own.
func TestPromQuantileMatchesObs(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("x_seconds", "test", 1e-9)
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i * i * 1000)
	}
	c := reg.Counter("y_total", "test")
	c.Add(7)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	p := parseProm(buf.String())
	snap := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		want := float64(snap.Quantile(q)) * 1e-9
		if got := p.quantile("x_seconds", q); got != want {
			t.Errorf("q%.2f: %g from the exposition, %g from obs", q, got, want)
		}
	}
	if p.value["y_total"] != 7 {
		t.Errorf("counter read back as %v", p.value["y_total"])
	}
}
