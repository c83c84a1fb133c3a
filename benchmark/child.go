package main

// The child process: the measured program. It loads the inputs the
// parent generated, sets the system up, warms it, measures for the
// requested seconds, checks every output, and writes result.json. Running
// each workload in its own child keeps peak RSS and heap state per
// workload.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// childEnv names the work directory when the binary runs as a child.
const childEnv = "STRONGDECOMP_BENCH_CHILD"

// Files of a run's work directory.
const (
	specFile    = "spec.json"
	resultFile  = "result.json"
	profileFile = "cpu.pprof"
	spansFile   = "spans.jsonl" // traced runs only
)

// maxNotes bounds the failure messages a result carries.
const maxNotes = 10

// childResult is what the child reports back to the parent.
type childResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Problems counts every failed op or check, warm-up and set-up
	// included; Notes keeps the first few messages.
	Problems int      `json:"problems"`
	Notes    []string `json:"notes,omitempty"`
	SetupS   float64  `json:"setup_s"`
	// LatencyMS holds the successful measured ops; failed ones are only
	// counted, and rank as +Inf in every percentile.
	LatencyMS []float64 `json:"latency_ms"`
	// LateMS is how late the open-loop generator dispatched each measured
	// op (serve workloads only).
	LateMS []float64          `json:"late_ms,omitempty"`
	Layer  map[string]float64 `json:"layer,omitempty"`
}

// note records a problem that is not a measured op's failure.
func (r *childResult) note(format string, args ...any) {
	r.Problems++
	if len(r.Notes) < maxNotes {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// record folds one measured op into the result.
func (r *childResult) record(latencyMS float64, err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.note("op %d: %v", r.Attempted, err)
		return
	}
	r.LatencyMS = append(r.LatencyMS, latencyMS)
}

func childMain(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, specFile))
	if err != nil {
		return fmt.Errorf("read spec: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("decode spec: %w", err)
	}
	w, err := lookupWorkload(sp.Workload)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var res *childResult
	if w.serve {
		res, err = runServe(ctx, dir, &sp)
	} else {
		res, err = runLibrary(ctx, dir, &sp)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", sp.Workload, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, resultFile), out, 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

// startProfile starts the traced pass's CPU profile; the returned stop
// function ends it and closes the file.
func startProfile(dir string) (stop func() error, err error) {
	f, err := os.Create(filepath.Join(dir, profileFile))
	if err != nil {
		return nil, fmt.Errorf("create profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// memSnap is the allocation state the runtime.* layer metrics diff.
type memSnap struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcs: m.NumGC}
}

// perOp writes the runtime.* metrics for ops operations between a and b.
func (a memSnap) perOp(b memSnap, ops int, layer map[string]float64) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	layer["runtime.allocs_per_op"] = float64(b.mallocs-a.mallocs) / n
	layer["runtime.alloc_mb_per_op"] = float64(b.bytes-a.bytes) / (1 << 20) / n
	layer["runtime.gc_per_op"] = float64(b.gcs-a.gcs) / n
}
