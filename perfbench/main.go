// Command perfbench is the repository benchmark. It generates a seeded
// workload, drives the validation pipeline through its public entry
// points, checks every output it measures, and prints its metrics: a
// report line with every figure of the workload, then one JSON result
// line with the metrics BENCHMARK.json names (end-to-end metrics, or
// per-layer metrics from a traced replay with --trace 1).
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload file-gz --seed 1 --seconds 25 --trace 0
//
// Workloads (README.md says why each exists):
//
//	file-gz       one heavy-tailed population as a single .bin.gz, outcome log on
//	shards-gen    the same population as 8 .bin base shards + 24 daily generations
//	serve-append  an in-process server; 2 clients upload, append and analyse
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runConfig is what every workload run receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	work    string // scratch directory, removed at exit
}

// workload is one benchmark workload: run measures the end-to-end
// metrics, traced the per-layer ones.
type workload interface {
	run(cfg runConfig) (*runOutcome, error)
	traced(cfg runConfig) (*runOutcome, error)
}

var workloads = map[string]workload{
	"file-gz":      batchWorkload{},
	"shards-gen":   batchWorkload{sharded: true},
	"serve-append": serveWorkload{},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: file-gz, shards-gen or serve-append")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed makes the same inputs")
	seconds := fs.Int("seconds", 25, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload file-gz|shards-gen|serve-append, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("perfbench-work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, work: work}

	var o *runOutcome
	specs := endToEnd
	if *traced == 1 {
		specs = perLayer
		o, err = w.traced(cfg)
	} else {
		o, err = w.run(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	env := environment(root)
	env["workload"], env["seed"], env["seconds"], env["trace"] = *name, *seed, *seconds, *traced
	if err := writeResult(stdout, o, specs, env); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return 0
}
