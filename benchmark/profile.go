package main

// Module-attributed CPU profile of the traced pass: every sample of
// `go tool pprof -traces` is charged to its innermost frame inside the
// strongdecomp module, by package.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// profileBuckets are the profile.* metrics' suffixes; "other" takes
// samples whose innermost module frame is in none of the listed
// packages, and samples with no module frame at all (runtime, GC,
// net/http, the benchmark's own code).
var profileBuckets = []string{"rg", "core", "cluster", "graph", "engine", "service", "httpapi", "shard", "graphio", "obs", "apps", "other"}

// bucketOf maps a module package path to its profile bucket, "" for a
// package outside the module.
func bucketOf(pkg string) string {
	switch pkg {
	case "strongdecomp":
		return "engine" // the facade package: Engine, Run, the service wiring
	case "strongdecomp/internal/rg":
		return "rg"
	case "strongdecomp/internal/core":
		return "core"
	case "strongdecomp/internal/cluster":
		return "cluster"
	case "strongdecomp/internal/graph":
		return "graph"
	case "strongdecomp/internal/graphio":
		return "graphio"
	case "strongdecomp/internal/service":
		return "service"
	case "strongdecomp/internal/service/httpapi":
		return "httpapi"
	case "strongdecomp/internal/shard":
		return "shard"
	case "strongdecomp/internal/obs":
		return "obs"
	case "strongdecomp/internal/apps":
		return "apps"
	}
	if strings.HasPrefix(pkg, "strongdecomp/") {
		return "other"
	}
	return ""
}

// funcPackage returns the package path of a symbolized frame such as
// "strongdecomp/internal/rg.(*state).accept" or
// "slices.Sort[go.shape.[]int,go.shape.int] (inline)".
func funcPackage(frame string) string {
	if i := strings.IndexAny(frame, "[ "); i >= 0 {
		frame = frame[:i]
	}
	slash := strings.LastIndex(frame, "/")
	if dot := strings.Index(frame[slash+1:], "."); dot >= 0 {
		return frame[:slash+1+dot]
	}
	return frame
}

// profileShares runs `go tool pprof -traces` on a CPU profile and returns
// each bucket's share of the sampled time.
func profileShares(ctx context.Context, path string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(strings.NewReader(string(out)))
}

// parseTraces attributes the samples of `pprof -traces` output. Each
// trace block opens with a separator line, then "<value>   <leaf frame>",
// then the callers one per line, innermost first.
func parseTraces(r io.Reader) (map[string]float64, error) {
	weights := make(map[string]time.Duration)
	var total time.Duration
	var cur time.Duration // current block's value; 0 once charged
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			if cur > 0 {
				weights["other"] += cur
			}
			cur = -1 // expect the value line
			continue
		}
		if cur == 0 {
			continue // already charged; remaining callers do not matter
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := strings.TrimSpace(line)
		if cur < 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				cur = 0 // a labels line or anything else that is not a sample
				continue
			}
			cur = d
			total += d
			frame = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), fields[0]))
		}
		if b := bucketOf(funcPackage(frame)); b != "" {
			weights[b] += cur
			cur = 0
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read pprof output: %w", err)
	}
	if cur > 0 {
		weights["other"] += cur
	}
	shares := make(map[string]float64, len(profileBuckets))
	for _, b := range profileBuckets {
		if total > 0 {
			shares[b] = weights[b].Seconds() / total.Seconds()
		} else {
			shares[b] = 0
		}
	}
	return shares, nil
}
