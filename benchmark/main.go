// Command benchmark is the repository's benchmark. Its four workloads
// split the system along the paper's layers: the RG20 weak carver
// (internal/rg), the Theorem 2.1 strong-diameter transformation with its
// cluster trees (internal/core, internal/cluster), the read tiers of the
// sharded service, and its write path. Each workload runs in its own
// child process, every output is checked, and -trace 1 runs the traced
// pass that breaks a request into its layers.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash benchmark/run.sh [-workload all|NAME] [-seed 43] [-seconds 27] [-trace 0|1] [-out FILE]
//	bash benchmark/run.sh -compare 'PARENT/*.json' 'CHANGE/*.json'
//
// It prints one "metric workload value unit" line per metric and, as its
// last line, one JSON object with the keys correct, attempted, failed
// and metrics. It exits 1 when any output fails its check. See
// benchmark/README.md for the workloads and the layer→metric map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if dir := os.Getenv(childEnv); dir != "" {
		if err := childMain(dir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		return
	}
	code, err := run(context.Background(), os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// options are the parsed flags of a benchmark run.
type options struct {
	workloads []workload
	seed      int64
	seconds   float64
	trace     bool
	tiny      bool
	out       string // results JSON path
}

// childTimeout bounds one child process; a run must end within three
// minutes.
const childTimeout = 170 * time.Second

// run parses args and runs the selected mode, returning the exit code.
func run(ctx context.Context, args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 43, "seed every input is derived from")
		seconds = fs.Float64("seconds", 27, "measured seconds per workload")
		trace   = fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
		tiny    = fs.Bool("tiny", false, "tiny inputs, for smoke tests")
		out     = fs.String("out", "", "results JSON path (default .bench_build/results/<workload>-seed<N>-trace<T>.json)")
		compare = fs.Bool("compare", false, "compare two sets of results files: -compare PARENT CHANGE")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare takes two arguments: the parent's and the change's results (directories or quoted globs)")
		}
		return compareResults(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout)
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds %v: want a positive duration", *seconds)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *tiny, out: *out}
	if *name == "all" {
		o.workloads = workloads
	} else {
		w, err := lookupWorkload(*name)
		if err != nil {
			return 2, err
		}
		o.workloads = []workload{w}
	}
	if o.out == "" {
		o.out = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace))
	}
	return runBenchmark(ctx, o, stdout)
}

// workloadResult is one workload's outcome in the results file.
type workloadResult struct {
	Name      string   `json:"name"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
	Metrics   metrics  `json:"metrics"`
}

// resultsDoc is the results file one run writes and -compare reads.
type resultsDoc struct {
	Schema    string           `json:"schema"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Seconds   float64          `json:"seconds"`
	CPUs      int              `json:"cpus"`
	GoVersion string           `json:"go_version"`
	Workloads []workloadResult `json:"workloads"`
}

const resultsSchema = "strongdecomp-benchmark/v1"

// driverLine is the last line of standard output.
type driverLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func runBenchmark(ctx context.Context, o options, stdout io.Writer) (int, error) {
	doc := resultsDoc{
		Schema: resultsSchema, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		CPUs: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	line := driverLine{Correct: true, Metrics: metrics{}}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, w := range o.workloads {
		wr, err := runWorkload(ctx, w, o)
		if err != nil {
			return 2, err
		}
		doc.Workloads = append(doc.Workloads, wr)
		for _, def := range append(append([]metricDef(nil), defs...), errorShareMetric) {
			v := wr.Metrics[def.name]
			fmt.Fprintf(stdout, "%s %s %v %s\n", def.name, w.name, v.Value, v.Unit)
		}
		for _, note := range wr.Notes {
			fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, note)
		}
		line.Correct = line.Correct && wr.Correct
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		for _, def := range defs {
			key := def.name
			if len(o.workloads) > 1 {
				key = w.name + "/" + def.name
			}
			line.Metrics[key] = wr.Metrics[def.name]
		}
	}
	if err := writeJSONFile(o.out, doc); err != nil {
		return 2, err
	}
	data, err := json.Marshal(line)
	if err != nil {
		return 2, fmt.Errorf("encode result line: %w", err)
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !line.Correct {
		return 1, nil
	}
	return 0, nil
}

// runWorkload generates the workload's inputs, runs its child process,
// and assembles its metrics.
func runWorkload(ctx context.Context, w workload, o options) (workloadResult, error) {
	// run.sh points TMPDIR into the checkout.
	dir, err := os.MkdirTemp("", w.name+"-")
	if err != nil {
		return workloadResult{}, fmt.Errorf("create work directory: %w", err)
	}
	defer os.RemoveAll(dir)
	if err := prepare(w, dir, o); err != nil {
		return workloadResult{}, fmt.Errorf("%s: %w", w.name, err)
	}
	self, err := os.Executable()
	if err != nil {
		return workloadResult{}, fmt.Errorf("locate own binary: %w", err)
	}
	cctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(cctx, self)
	cmd.Env = append(os.Environ(), childEnv+"="+dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // the child never outlives this process
	if err := cmd.Run(); err != nil {
		return workloadResult{}, fmt.Errorf("%s: child process: %w", w.name, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, resultFile))
	if err != nil {
		return workloadResult{}, fmt.Errorf("%s: read child result: %w", w.name, err)
	}
	var cr childResult
	if err := json.Unmarshal(data, &cr); err != nil {
		return workloadResult{}, fmt.Errorf("%s: decode child result: %w", w.name, err)
	}
	wr := workloadResult{
		Name: w.name, Correct: cr.Problems == 0 && cr.Attempted > 0,
		Attempted: cr.Attempted, Failed: cr.Failed, Notes: cr.Notes,
		Metrics: metrics{},
	}
	m := wr.Metrics
	if cr.Attempted > 0 {
		m.set(errorShareMetric, float64(cr.Failed)/float64(cr.Attempted))
	}
	if !o.trace {
		m.set(latencyP50, percentile(cr.LatencyMS, cr.Failed, 0.50))
		// ru_maxrss is in KiB on Linux.
		m.set(peakRSS, float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss)/1024)
		m.set(setupTime, cr.SetupS)
		return wr, nil
	}
	layer := cr.Layer
	layer["loadgen.latency_p90_ms"] = percentile(cr.LatencyMS, cr.Failed, 0.90)
	layer["loadgen.latency_p99_ms"] = percentile(cr.LatencyMS, cr.Failed, 0.99)
	layer["loadgen.send_late_p99_ms"] = percentile(cr.LateMS, 0, 0.99)
	layer["loadgen.sent"] = float64(cr.Attempted)
	layer["loadgen.ok"] = float64(cr.Attempted - cr.Failed)
	shares, err := profileShares(ctx, filepath.Join(dir, profileFile))
	if err != nil {
		return workloadResult{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := os.Rename(filepath.Join(dir, spansFile), spansPath(o.out, w.name)); err != nil {
		return workloadResult{}, fmt.Errorf("%s: keep spans: %w", w.name, err)
	}
	for b, s := range shares {
		layer["profile."+b] = s
	}
	for _, def := range perLayer {
		m.set(def, layer[def.name])
	}
	return wr, nil
}

// spansPath is where a traced run keeps a workload's spans: beside the
// results file.
func spansPath(out, workload string) string {
	return strings.TrimSuffix(out, ".json") + "." + workload + ".spans.jsonl"
}

// writeJSONFile writes v as indented JSON, creating parent directories.
func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create results directory: %w", err)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
