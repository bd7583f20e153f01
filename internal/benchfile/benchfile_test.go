package benchfile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadMissingOrEmpty pins that Read treats a nonexistent path and a
// zero-byte file (mktemp pre-creates one before -bench writes it) the
// same way: an empty current-schema report, not a JSON error.
func TestReadMissingOrEmpty(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, path string
		create     bool
	}{
		{"missing", filepath.Join(dir, "nope.json"), false},
		{"empty", filepath.Join(dir, "empty.json"), true},
	} {
		if tc.create {
			if err := os.WriteFile(tc.path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		f, err := Read(tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if f.SchemaVersion != SchemaVersion || len(f.Experiments) != 0 || len(f.Micro) != 0 {
			t.Errorf("%s: got non-empty report %+v", tc.name, f)
		}
	}
}

// TestDecodeLegacyArray pins that a schema-1 bare array is rejected
// rather than upgraded.
func TestDecodeLegacyArray(t *testing.T) {
	if f, err := Decode([]byte(`[{"experiment":"fig05","wall_seconds":1.5},{"experiment":"total"}]`)); err == nil {
		t.Fatalf("bare array decoded without error: %+v", f)
	}
}

// TestDecodeFutureSchemaRefused pins that a newer schema_version is an
// error instead of silently dropped fields.
func TestDecodeFutureSchemaRefused(t *testing.T) {
	if _, err := Decode([]byte(`{"schema_version":99}`)); err == nil {
		t.Fatal("schema_version 99 decoded without error")
	}
}

// TestWriteReadRoundTrip pins that Write output reads back identically
// and keeps micro rows.
func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	f := &File{
		Experiments: []Experiment{{Experiment: "fig05", WallSeconds: 2, Simulations: 3}},
		Micro:       []Micro{{Package: "repro", Name: "BenchmarkStepLoop", Iterations: 7, NsPerOp: 123}},
	}
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Experiments) != 1 || got.Experiments[0].Simulations != 3 ||
		len(got.Micro) != 1 || got.Micro[0].NsPerOp != 123 {
		t.Errorf("round trip lost data: %+v", got)
	}
}

// TestMergeMicro pins replace-by-(package,name) semantics.
func TestMergeMicro(t *testing.T) {
	f := &File{Micro: []Micro{{Package: "repro", Name: "BenchmarkStepLoop", NsPerOp: 100}}}
	f.MergeMicro([]Micro{
		{Package: "repro", Name: "BenchmarkStepLoop", NsPerOp: 50},
		{Package: "repro", Name: "BenchmarkPrefetchDispatch", NsPerOp: 70},
	})
	if len(f.Micro) != 2 {
		t.Fatalf("got %d rows, want 2 (replace in place)", len(f.Micro))
	}
	if f.Micro[0].NsPerOp != 50 || f.Micro[1].Name != "BenchmarkPrefetchDispatch" {
		t.Errorf("merge result: %+v", f.Micro)
	}
}

// TestParseGoBench pins parsing of raw `go test -bench` output,
// including custom ReportMetric units and noise lines.
func TestParseGoBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
BenchmarkStepLoop-8   	      12	  95476503 ns/op	  10.48 Minstr/s
BenchmarkWarmupSnapshot   	      26	  47324683 ns/op	  46.49 effective-Minstr/s
PASS
ok  	repro	3.2s
`
	rows, err := ParseGoBench(strings.NewReader(out), "repro")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("parsed %d rows, want 2: %+v", len(rows), rows)
	}
	r := rows[0]
	if r.Name != "BenchmarkStepLoop" || r.Iterations != 12 || r.NsPerOp != 95476503 ||
		r.Metrics["Minstr/s"] != 10.48 {
		t.Errorf("row 0: %+v", r)
	}
	if rows[1].Name != "BenchmarkWarmupSnapshot" || rows[1].Metrics["effective-Minstr/s"] != 46.49 {
		t.Errorf("row 1: %+v", rows[1])
	}
}
