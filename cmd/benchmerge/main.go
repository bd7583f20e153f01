// Command benchmerge folds Go microbenchmark results into the
// versioned BENCH_sim.json report next to the whole-experiment rows
// written by cmd/experiments -bench:
//
//	go test -run '^$' -bench 'StepLoop|PrefetchDispatch' . |
//	    go run ./cmd/benchmerge -file BENCH_sim.json -pkg repro
//
// Rows are keyed (package, benchmark name): re-running a suite updates
// its rows in place.
//
// With -service, stdin is instead a BENCH_service.json fragment (the
// shape cmd/triageload emits) and its scenario rows are merged into the
// service report, keyed by scenario name:
//
//	triageload -scenario steady -o - | benchmerge -service -file BENCH_service.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchfile"
)

func main() {
	var (
		file    = flag.String("file", "BENCH_sim.json", "report to update")
		pkg     = flag.String("pkg", "", "package label for the parsed rows (required unless -service)")
		service = flag.Bool("service", false, "merge a BENCH_service.json fragment from stdin instead of go-test -bench output")
	)
	flag.Parse()
	if *service {
		if err := mergeService(*file); err != nil {
			fmt.Fprintf(os.Stderr, "benchmerge: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *pkg == "" {
		fmt.Fprintln(os.Stderr, "benchmerge: -pkg is required")
		os.Exit(2)
	}
	rows, err := benchfile.ParseGoBench(os.Stdin, *pkg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmerge: parse: %v\n", err)
		os.Exit(1)
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchmerge: no benchmark lines on stdin")
		os.Exit(1)
	}
	f, err := benchfile.Read(*file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmerge: %v\n", err)
		os.Exit(1)
	}
	f.MergeMicro(rows)
	if err := f.Write(*file); err != nil {
		fmt.Fprintf(os.Stderr, "benchmerge: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("merged %d microbenchmark rows into %s\n", len(rows), *file)
}

// mergeService folds the scenario rows of a service report on stdin
// into the report at path, replacing rows with matching scenario names.
func mergeService(path string) error {
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		return err
	}
	in, err := benchfile.DecodeService(data)
	if err != nil {
		return err
	}
	if len(in.Service) == 0 {
		return fmt.Errorf("no service rows on stdin")
	}
	// Default -file still points at the sim report; steer the common
	// mistake of merging service rows into it.
	if path == "BENCH_sim.json" {
		path = "BENCH_service.json"
	}
	f, err := benchfile.ReadService(path)
	if err != nil {
		return err
	}
	f.MergeService(in.Service)
	if err := f.Write(path); err != nil {
		return err
	}
	fmt.Printf("merged %d service scenario row(s) into %s\n", len(in.Service), path)
	return nil
}
