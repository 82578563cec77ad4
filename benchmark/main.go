// Benchmark measures the real oniond binary end to end and layer by
// layer on the scaled Fig. 2 transport world. It builds cmd/oniond,
// runs it as a child process on loopback, loads the world through the
// public HTTP API, drives one of five named workloads from two
// connections, checks answers against an in-process oracle, and prints
// every metric of BENCHMARK.json by name and unit.
//
//	go run ./benchmark -workload transport-miss -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -seed 1 -json > run.json     # all five, both passes
//	go run ./benchmark -compare base.json new.json  # the regression gate
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// of an untraced window with -trace 0, the per-layer metrics of a
// traced pass with -trace 1. See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	worldVehicles = 20000 // per source: ≈140 k facts
	setUpRepeats  = 3     // set-ups per run; setup_s is their median
	buildDir      = ".bench_build"
	// runLimit ends a single workload run that has hung, inside the
	// three minutes a caller allows it.
	runLimit = 170 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and print one result line (default: all five, both passes)")
		seed    = flag.Int64("seed", 1, "seed for the world's facts, the filter constants and the request order")
		seconds = flag.Int("seconds", 10, "measured time per run")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports end-to-end metrics untraced, 1 reports per-layer metrics from a traced pass")
		asJSON  = flag.Bool("json", false, "without -workload: print the full report as JSON instead of a table")
		outDir  = flag.String("out", filepath.Join(buildDir, "traces"), "directory for <workload>.trace.json span files")
		compare = flag.Bool("compare", false, "compare two -json reports given as arguments; exit 1 on a regression")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *asJSON, *outDir, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, asJSON bool, outDir string, compare bool, args []string) error {
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareReports(os.Stdout, args[0], args[1])
	case len(args) > 0:
		return fmt.Errorf("unexpected arguments %q", args)
	case seconds < 1 || trace < 0 || trace > 1:
		return fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}

	// A signal cancels the context; every loop watches it, and the
	// deferred clean-up kills the daemon's process group and removes
	// its temp dirs on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	bin, err := buildDaemon(ctx, ".", buildDir)
	if err != nil {
		return err
	}
	cfg := config{
		seed: seed, vehicles: worldVehicles, window: time.Duration(seconds) * time.Second,
		setups: setUpRepeats, bin: bin, buildDir: buildDir, outDir: outDir,
	}
	once := func(w *workload, traced bool) (result, error) {
		ctx, cancel := context.WithTimeout(ctx, runLimit)
		defer cancel()
		res, err := runWorkload(ctx, cfg, w, traced)
		if err != nil {
			return res, fmt.Errorf("%s: %w", w.name, err)
		}
		return res, nil
	}

	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q; BENCHMARK.json names them", name)
		}
		res, err := once(w, trace == 1)
		if err != nil {
			return err
		}
		for n, m := range res.Metrics {
			m.Samples = 0 // the result line carries value and unit only
			res.Metrics[n] = m
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}

	full := fullReport{
		Seed: seed, Seconds: seconds, VehiclesPerSource: worldVehicles, SetUpsPerRun: setUpRepeats,
		NProc: runtime.NumCPU(), DaemonGOMAXPROCS: daemonProcs, LoadConnections: loadConns,
		Go: runtime.Version(), Commit: commit(),
		FlushPolicy: "oniond's own: one write(2) per log record, no per-record fsync; crash model is process kill",
		Workloads:   map[string]workloadReport{},
	}
	for _, w := range workloads {
		plain, err := once(w, false)
		if err != nil {
			return err
		}
		traced, err := once(w, true)
		if err != nil {
			return err
		}
		attempted, failed := plain.Attempted+traced.Attempted, plain.Failed+traced.Failed
		full.Workloads[w.name] = workloadReport{
			Why: w.why, Correct: failed == 0, Attempted: attempted, Failed: failed,
			FailRatio: float64(failed) / float64(attempted),
			EndToEnd:  plain.Metrics, PerLayer: traced.Metrics,
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(full)
	}
	full.printTable()
	return nil
}

// fullReport is what a run of all five workloads prints, and what
// -compare reads.
type fullReport struct {
	Seed              int64                     `json:"seed"`
	Seconds           int                       `json:"seconds"`
	VehiclesPerSource int                       `json:"vehicles_per_source"`
	SetUpsPerRun      int                       `json:"set_ups_per_run"`
	NProc             int                       `json:"nproc"`
	DaemonGOMAXPROCS  int                       `json:"daemon_gomaxprocs"`
	LoadConnections   int                       `json:"load_connections"`
	Go                string                    `json:"go"`
	Commit            string                    `json:"commit"`
	FlushPolicy       string                    `json:"flush_policy"`
	Workloads         map[string]workloadReport `json:"workloads"`
}

type workloadReport struct {
	Why       string  `json:"why"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailRatio float64 `json:"fail_ratio"`
	EndToEnd  report  `json:"end_to_end"`
	PerLayer  report  `json:"per_layer"`
}

func (f fullReport) printTable() {
	fmt.Printf("seed %d, %d s per run, %d vehicles per source, nproc %d, daemon GOMAXPROCS %d, %s, commit %s\n",
		f.Seed, f.Seconds, f.VehiclesPerSource, f.NProc, f.DaemonGOMAXPROCS, f.Go, f.Commit)
	for _, w := range workloads {
		r := f.Workloads[w.name]
		fmt.Printf("\n%s: %d attempted, %d failed (fail_ratio %g)\n", w.name, r.Attempted, r.Failed, r.FailRatio)
		for _, d := range endToEnd {
			m := r.EndToEnd[d.name]
			fmt.Printf("  %-38s %14.4f %-6s n=%d\n", d.name, m.Value, m.Unit, m.Samples)
		}
		for _, d := range perLayer {
			m := r.PerLayer[d.name]
			fmt.Printf("  %-38s %14.4f %-6s n=%d\n", d.name, m.Value, m.Unit, m.Samples)
		}
	}
}

// commit names the checkout being measured, when it is a git one.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
