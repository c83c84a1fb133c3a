package main

// -compare: judge a change against its parent from two sets of results
// files, run with the same seeds. Runs pair up in seed order. A metric
// improved when the change wins at least nine tenths of the pairs (ties
// count for neither) and the medians differ by more than the parent's
// interquartile range. An end-to-end metric regressed when the change's
// median is worse than the parent's by more than its bound from
// BENCHMARK.json; it is unresolved when the parent's own spread exceeds
// the bound, unless every change run beats every parent run.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkDef is the part of BENCHMARK.json -compare reads.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// judged is one metric's comparison.
type judged struct {
	parentMed, parentQ1, parentQ3 float64
	changeMed, changeQ1, changeQ3 float64
	wins, pairs                   int
	verdict                       string
}

// judge applies the rule above. bound < 0 marks a metric without a
// bound: it can only be judged improved or regressed by the win rule.
func judge(parent, change []float64, lowerBetter bool, bound float64) judged {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	j := judged{pairs: min(len(parent), len(change))}
	losses := 0
	for i := 0; i < j.pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			j.wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	j.parentMed, j.changeMed = median(parent), median(change)
	j.parentQ1, j.parentQ3 = quartiles(parent)
	j.changeQ1, j.changeQ3 = quartiles(change)
	iqr := j.parentQ3 - j.parentQ1
	gap := math.Abs(j.changeMed - j.parentMed)
	switch {
	case j.pairs > 0 && 10*j.wins >= 9*j.pairs && better(j.changeMed, j.parentMed) && gap > iqr:
		j.verdict = "improved"
	case bound < 0:
		j.verdict = "unchanged"
		if j.pairs > 0 && 10*losses >= 9*j.pairs && better(j.parentMed, j.changeMed) && gap > iqr {
			j.verdict = "regressed"
		}
	case relative(iqr, j.parentMed) > bound && !allBetter(change, parent, better):
		j.verdict = "unresolved"
	case better(j.parentMed, j.changeMed) && relative(gap, j.parentMed) > bound:
		j.verdict = "regressed"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// relative is x as a share of base; any positive x is infinitely large
// against a zero base.
func relative(x, base float64) float64 {
	switch {
	case x == 0:
		return 0
	case base == 0:
		return math.Inf(1)
	}
	return x / math.Abs(base)
}

// allBetter reports whether every change run beats every parent run.
func allBetter(change, parent []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return len(change) > 0 && len(parent) > 0
}

// loadResults reads a directory's *.json results files, or the files a
// glob names, in seed order.
func loadResults(arg string) ([]resultsDoc, error) {
	pattern := arg
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		pattern = filepath.Join(arg, "*.json")
	}
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, fmt.Errorf("results pattern %q: %w", arg, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no results files match %q", arg)
	}
	sort.Strings(paths)
	docs := make([]resultsDoc, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("read results: %w", err)
		}
		var doc resultsDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("decode %s: %w", path, err)
		}
		if doc.Schema != resultsSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, resultsSchema)
		}
		docs = append(docs, doc)
	}
	sort.SliceStable(docs, func(i, j int) bool { return docs[i].Seed < docs[j].Seed })
	return docs, nil
}

// series collects each workload's metric values in run order.
func series(docs []resultsDoc) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, doc := range docs {
		for _, w := range doc.Workloads {
			if out[w.Name] == nil {
				out[w.Name] = make(map[string][]float64)
			}
			for name, v := range w.Metrics {
				out[w.Name][name] = append(out[w.Name][name], v.Value)
			}
		}
	}
	return out
}

func compareResults(parentArg, changeArg, configPath string, stdout io.Writer) (int, error) {
	data, err := os.ReadFile(configPath)
	if err != nil {
		return 2, fmt.Errorf("read benchmark definition: %w", err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return 2, fmt.Errorf("decode %s: %w", configPath, err)
	}
	parentDocs, err := loadResults(parentArg)
	if err != nil {
		return 2, err
	}
	changeDocs, err := loadResults(changeArg)
	if err != nil {
		return 2, err
	}
	parent, change := series(parentDocs), series(changeDocs)

	type row struct {
		name        string
		lowerBetter bool
		bound       float64 // < 0: no bound
		e2e         bool
	}
	var rows []row
	for _, m := range def.EndToEnd {
		rows = append(rows, row{m.Name, m.Better == "lower", m.Bound, true})
	}
	rows = append(rows, row{errorShareMetric.name, true, 0, true}) // no increase allowed
	for _, m := range def.PerLayer {
		rows = append(rows, row{m.Name, m.Better == "lower", -1, false})
	}

	fmt.Fprintf(stdout, "%-16s %-28s %-36s %-36s %-6s %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	regressed := false
	for _, w := range sortedKeys(parent) {
		for _, r := range rows {
			p, c := parent[w][r.name], change[w][r.name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			j := judge(p, c, r.lowerBetter, r.bound)
			fmt.Fprintf(stdout, "%-16s %-28s %-36s %-36s %-6s %s\n", w, r.name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", j.parentMed, j.parentQ1, j.parentQ3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", j.changeMed, j.changeQ1, j.changeQ3),
				fmt.Sprintf("%d/%d", j.wins, j.pairs), j.verdict)
			if r.e2e && j.verdict == "regressed" {
				regressed = true
			}
		}
	}
	if regressed {
		return 1, nil
	}
	return 0, nil
}
