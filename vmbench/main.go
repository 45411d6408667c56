// Command vmbench is the ViewMap server benchmark. One invocation runs
// one named workload for one seed in a fresh process and prints, as
// the last line of standard output, a JSON object with the keys
// correct, attempted, failed and metrics:
//
//	go build -o vmbench . && ./vmbench --workload ingest --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics declared in
// BENCHMARK.json; with --trace 1 they are the per-layer metrics. The
// line before it is a detail report: provenance (commit, Go version,
// GOMAXPROCS, CPU, filesystem, flush policy, seed), sample counts, and
// the per-endpoint latencies behind the generic end-to-end names.
//
// Requests go through server.Handler in-process (no sockets), so
// admission, telemetry and the JSON/wire decoding are on the measured
// path. run.py builds this package and runs it from the repository
// root. The workloads are ingest (ingest.go), investigate
// (investigate.go), live (live.go) and evidence (evidence.go); the
// traced run's layer attribution is in layers.go.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs the workload and prints the result; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg benchConfig
	fs.StringVar(&cfg.workload, "workload", "", "workload: ingest, investigate, live or evidence")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds (sum of the timed windows)")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.BoolVar(&cfg.tiny, "tiny", false, "shrink every workload to a smoke-test size")
	fs.Float64Var(&cfg.fsyncSlowdown, "fsync-slowdown", 0, "sleep this fraction of each WAL fsync's duration after it (regression injection)")
	fs.StringVar(&cfg.dir, "dir", "", "scratch directory for durable state; empty selects $CARGO_TARGET_DIR, else .bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "vmbench: --trace must be 0 or 1")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "vmbench: --seconds must be positive")
		return 2
	}
	if err := prepareDir(&cfg); err != nil {
		fmt.Fprintln(stderr, "vmbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.runDir)

	out, err := runBenchmark(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "vmbench:", err)
		return 1
	}
	detail, err := json.Marshal(out.detail)
	if err != nil {
		fmt.Fprintln(stderr, "vmbench:", err)
		return 1
	}
	final, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(stderr, "vmbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", detail, final)
	return 0
}

// benchConfig is one invocation's settings.
type benchConfig struct {
	workload      string
	seed          int64
	seconds       float64
	trace         bool
	tiny          bool
	fsyncSlowdown float64
	dir           string
	// runDir is this process's private directory under dir, removed on
	// exit.
	runDir string
}

// prepareDir resolves the scratch directory and creates the run's
// private subdirectory in it.
func prepareDir(cfg *benchConfig) error {
	if cfg.dir == "" {
		cfg.dir = os.Getenv("CARGO_TARGET_DIR")
	}
	if cfg.dir == "" {
		cfg.dir = ".bench_build"
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	d, err := os.MkdirTemp(cfg.dir, "vmbench-run-*")
	if err != nil {
		return err
	}
	cfg.runDir = d
	return nil
}

// bankKeyPath locates the fixed 2048-bit bank key that ships next to
// the benchmark sources, so RSA prime search never lands in set-up
// time. It is a benchmark fixture, not a secret.
func bankKeyPath() (string, error) {
	for _, p := range []string{"vmbench/bankkey.pem", "bankkey.pem"} {
		if _, err := os.Stat(p); err == nil {
			return filepath.Abs(p)
		}
	}
	return "", errors.New("bankkey.pem not found (run from the repository root)")
}
