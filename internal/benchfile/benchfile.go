// Package benchfile owns the BENCH_sim.json schema: a versioned report
// holding whole-experiment throughput rows (written by cmd/experiments
// -bench) and per-package microbenchmark rows (appended by
// cmd/benchmerge from `go test -bench` output).
package benchfile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// SchemaVersion is the current BENCH_sim.json schema.
// Version history:
//
//	1 (implicit): bare JSON array of experiment rows; no longer read.
//	2: versioned object {schema_version, experiments, micro}.
const SchemaVersion = 2

// File is one BENCH_sim.json report.
type File struct {
	SchemaVersion int          `json:"schema_version"`
	Experiments   []Experiment `json:"experiments"`
	Micro         []Micro      `json:"micro,omitempty"`
}

// Experiment is one whole-experiment throughput row ("total" aggregates
// the run).
type Experiment struct {
	Experiment       string  `json:"experiment"`
	WallSeconds      float64 `json:"wall_seconds"`
	Simulations      uint64  `json:"simulations"`
	SimInstructions  uint64  `json:"sim_instructions"`
	SimInstrPerSec   float64 `json:"sim_instructions_per_sec"`
	Workers          int     `json:"workers"`
	WarmupInstr      uint64  `json:"warmup_instructions"`
	MeasureInstr     uint64  `json:"measure_instructions"`
	MultiWarmupInstr uint64  `json:"multi_warmup_instructions"`
	MultiMeasure     uint64  `json:"multi_measure_instructions"`
	// Telemetry marks entries measured with the per-run sampler
	// attached (-telemetry), so throughput numbers with and without
	// instrumentation are comparable across reports.
	Telemetry bool `json:"telemetry"`
}

// Micro is one Go microbenchmark result.
type Micro struct {
	Package    string             `json:"package"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Read loads a report. A missing or empty file is not an error: it returns
// an empty current-schema File so callers can build reports
// incrementally (mktemp-style pre-created output files included).
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &File{SchemaVersion: SchemaVersion}, nil
	}
	if err != nil {
		return nil, err
	}
	if len(strings.TrimSpace(string(data))) == 0 {
		return &File{SchemaVersion: SchemaVersion}, nil
	}
	return Decode(data)
}

// Decode parses a versioned report; a schema-1 bare array is an error.
func Decode(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchfile: %w", err)
	}
	if f.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("benchfile: schema_version %d is newer than supported %d", f.SchemaVersion, SchemaVersion)
	}
	f.SchemaVersion = SchemaVersion
	return &f, nil
}

// Write atomically-ish persists the report (single WriteFile).
func (f *File) Write(path string) error {
	f.SchemaVersion = SchemaVersion
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Total returns the aggregate "total" experiment row, if present.
func (f *File) Total() (Experiment, bool) {
	for _, e := range f.Experiments {
		if e.Experiment == "total" {
			return e, true
		}
	}
	return Experiment{}, false
}

// MergeMicro inserts rows, replacing any existing row with the same
// (package, name) so re-running a suite updates in place.
func (f *File) MergeMicro(rows []Micro) {
	for _, r := range rows {
		replaced := false
		for i := range f.Micro {
			if f.Micro[i].Package == r.Package && f.Micro[i].Name == r.Name {
				f.Micro[i] = r
				replaced = true
				break
			}
		}
		if !replaced {
			f.Micro = append(f.Micro, r)
		}
	}
}

// ParseGoBench extracts benchmark rows from `go test -bench` text
// output. Lines look like:
//
//	BenchmarkStepLoop-8   	      12	  95476503 ns/op	  10.48 Minstr/s
//
// The trailing "-8" GOMAXPROCS suffix is stripped from the name.
// Non-benchmark lines are ignored, so the full `go test` output can be
// piped in unfiltered. pkg labels every parsed row.
func ParseGoBench(r io.Reader, pkg string) ([]Micro, error) {
	var rows []Micro
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		m := Micro{
			Package:    pkg,
			Name:       strings.TrimSuffix(fields[0], "-"+lastDash(fields[0])),
			Iterations: iters,
		}
		// The remainder alternates value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				m.NsPerOp = v
				continue
			}
			if m.Metrics == nil {
				m.Metrics = make(map[string]float64)
			}
			m.Metrics[unit] = v
		}
		rows = append(rows, m)
	}
	return rows, sc.Err()
}

// lastDash returns the text after the final '-' (the GOMAXPROCS
// suffix), or "" when there is none.
func lastDash(s string) string {
	if i := strings.LastIndex(s, "-"); i >= 0 {
		return s[i+1:]
	}
	return ""
}
