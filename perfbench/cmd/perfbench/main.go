// Command perfbench is the repository benchmark. Run it through
// perfbench/run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload figs-single --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the
// workload with a CPU profile, spans and the layer drivers and reports
// the per-layer metrics. The last line of standard output is the
// result as one JSON object. The "rep" and "drivers" subcommands are
// the child processes a run starts; they are not meant to be run by
// hand.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/perfbench/internal/bench"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench run|rep|drivers [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = run(os.Args[2:])
	case "rep":
		err = rep(os.Args[2:])
	case "drivers":
		err = drivers(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run: figs-single, figs-multi, svc-local or svc-cluster")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "how long to keep repeating the workload")
	traced := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	fs.Parse(args)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	return bench.Run(bench.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced == 1,
		Root: root, Self: self, Out: os.Stdout, Log: os.Stderr,
	})
}

// rep runs one repetition and writes "ready" once set up, then the
// repetition's result as one JSON line.
func rep(args []string) error {
	fs := flag.NewFlagSet("rep", flag.ExitOnError)
	workload := fs.String("workload", "", "workload")
	seed := fs.Uint64("seed", 1, "seed")
	workdir := fs.String("workdir", "", "scratch directory for this repetition")
	traced := fs.Bool("traced", false, "profile and trace the repetition")
	fs.Parse(args)
	res, err := bench.Rep(*workload, *seed, *traced, *workdir, func() { fmt.Println("ready") })
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func drivers(args []string) error {
	fs := flag.NewFlagSet("drivers", flag.ExitOnError)
	workload := fs.String("workload", "", "workload")
	seed := fs.Uint64("seed", 1, "seed")
	workdir := fs.String("workdir", "", "scratch directory")
	fs.Parse(args)
	out, err := bench.RunDrivers(*workload, *seed, *workdir)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}
