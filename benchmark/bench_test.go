package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
)

// TestMain lets the test binary act as the benchmark's child process,
// which is how the smoke test runs workloads.
func TestMain(m *testing.M) {
	if dir := os.Getenv(childEnv); dir != "" {
		if err := childMain(dir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// definition is BENCHMARK.json as the smoke test reads it.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDefinition(t *testing.T) definition {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// runTable runs the benchmark with args and returns the "metric workload
// -> unit" pairs it printed, its last line, and its results file.
func runTable(t *testing.T, args ...string) (map[string]string, map[string]json.RawMessage, string) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "results.json")
	args = append(args, "-tiny", "-seconds", "1", "-out", out)
	var stdout bytes.Buffer
	code, err := run(context.Background(), args, &stdout)
	if err != nil || code != 0 {
		t.Fatalf("run %v: code %d, err %v\n%s", args, code, err, stdout.String())
	}
	units := make(map[string]string)
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 4 {
			units[f[0]+" "+f[1]] = f[3]
		}
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return units, line, out
}

func TestSmokeEmitsEveryMetric(t *testing.T) {
	def := readDefinition(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var defined []string
	for _, w := range def.Workloads {
		defined = append(defined, w.Name)
	}
	if !reflect.DeepEqual(names, defined) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", defined, names)
	}

	units, line, _ := runTable(t)
	if got, want := sortedKeys(line), []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(got, want) {
		t.Errorf("last line keys %v, want %v", got, want)
	}
	for _, w := range def.Workloads {
		for _, m := range def.EndToEnd {
			if got, ok := units[m.Name+" "+w.Name]; !ok || got != m.Unit {
				t.Errorf("%s on %s: emitted unit %q (present %v), want %q", m.Name, w.Name, got, ok, m.Unit)
			}
		}
	}

	units, _, out := runTable(t, "-workload", "decompose-strips", "-trace", "1")
	for _, m := range def.PerLayer {
		if got, ok := units[m.Name+" decompose-strips"]; !ok || got != m.Unit {
			t.Errorf("%s: emitted unit %q (present %v), want %q", m.Name, got, ok, m.Unit)
		}
	}
	spans, err := os.ReadFile(spansPath(out, "decompose-strips"))
	if err != nil {
		t.Fatal(err)
	}
	var first spanLine
	if err := json.Unmarshal(bytes.SplitN(spans, []byte("\n"), 2)[0], &first); err != nil || first.Stage != "op" {
		t.Errorf("first span %+v (%v), want an op span", first, err)
	}
}

func TestCheckDecomposition(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	for _, tc := range []struct {
		name          string
		assign, color []int
		k             int
		strong        bool
		want          string // error substring, "" for accepted
	}{
		{"valid", []int{0, 0, 1, 1}, []int{0, 1}, 2, true, ""},
		{"wrong-length assignment", []int{0, 0, 1}, []int{0, 1}, 2, true, "covers 3 nodes"},
		{"uncovered node", []int{0, 0, -1, 1}, []int{0, 1}, 2, true, "outside [0,2)"},
		{"adjacent clusters share a colour", []int{0, 0, 1, 1}, []int{0, 0}, 2, true, "share colour"},
		{"disconnected cluster", []int{0, 1, 1, 0}, []int{0, 1}, 2, true, "disconnected"},
		{"disconnected cluster of a weak construction", []int{0, 1, 1, 0}, []int{0, 1}, 2, false, ""},
		{"colour per cluster missing", []int{0, 0, 1, 1}, []int{0}, 2, true, "colours for 2 clusters"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkDecomposition(g, tc.assign, tc.color, tc.k, tc.strong)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected a valid decomposition: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestCheckAppAnswers(t *testing.T) {
	g := graph.Path(5) // 0-1-2-3-4, diameter 4, ecc(0) = 4
	two, _ := graph.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	for _, tc := range []struct {
		name string
		err  error
		ok   bool
	}{
		{"mis", checkMIS(g, []bool{true, false, true, false, true}), true},
		{"mis not independent", checkMIS(g, []bool{true, true, false, true, false}), false},
		{"mis not maximal", checkMIS(g, []bool{true, false, false, false, true}), false},
		{"coloring", checkColoring(g, []int{0, 1, 0, 1, 0}, 3), true},
		{"coloring improper", checkColoring(g, []int{0, 0, 1, 0, 1}, 3), false},
		{"coloring palette", checkColoring(g, []int{0, 1, 0, 1, 0}, 2), false},
		{"diameter", checkDiameter(g, 4), true},
		{"diameter below the sweep's eccentricity", checkDiameter(g, 3), false},
		{"diameter above twice it", checkDiameter(g, 9), false},
		{"diameter per component", checkDiameter(two, 1), true},
		{"spanner", checkSpanner(g, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}), true},
		{"spanner edge not in graph", checkSpanner(g, [][2]int{{0, 1}, {1, 2}, {2, 4}, {3, 4}}), false},
		{"spanner not spanning", checkSpanner(g, [][2]int{{0, 1}, {1, 2}, {3, 4}}), false},
		{"spanner of two components", checkSpanner(two, [][2]int{{0, 1}, {2, 3}}), true},
	} {
		if (tc.err == nil) != tc.ok {
			t.Errorf("%s: err %v, want ok=%v", tc.name, tc.err, tc.ok)
		}
	}
}

// inputs are every generated input of one seed, as graph hashes and
// schedules.
type inputs struct {
	hashes []string
	reads  []readReq
	ingest []ingestOp
}

func generate(seed int64) inputs {
	z := sizing(true)
	in := inputs{reads: readSchedule(seed, 2, z)}
	gs := []*graph.Graph{giantGraph(seed, z), stripsGraph(seed, z)}
	gs = append(gs, storedGraphs(seed, z)...)
	fresh, ops := ingestInputs(seed, 2, z)
	gs = append(gs, fresh...)
	in.ingest = ops
	for _, g := range gs {
		in.hashes = append(in.hashes, graphio.Hash(g))
	}
	return in
}

func TestInputsAreSeeded(t *testing.T) {
	a, b, c := generate(43), generate(43), generate(44)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	for i := range a.hashes {
		if a.hashes[i] == c.hashes[i] {
			t.Errorf("input graph %d is the same under seeds 43 and 44", i)
		}
	}
	if reflect.DeepEqual(a.reads, c.reads) {
		t.Error("serve-read schedule is the same under seeds 43 and 44")
	}
	if len(a.ingest) != len(c.ingest) {
		t.Error("serve-ingest schedule length depends on the seed")
	}
}

func TestGiantGraphHasConnectedGnpDensity(t *testing.T) {
	z := sizing(false)
	g := giantGraph(43, z)
	if comps := graph.Components(g, nil); g.N() != z.giantN || len(comps) != 1 {
		t.Fatalf("n=%d in %d components, want n=%d connected", g.N(), len(comps), z.giantN)
	}
	// The path's n-1 edges plus Binomial(n(n-1)/2, p) pair edges, less the
	// few both draw. One percent is about five standard deviations.
	n, p := float64(z.giantN), z.giantDeg/float64(z.giantN)
	want := (n - 1) + p*n*(n-1)/2
	if got := float64(g.M()); math.Abs(got-want) > 0.01*want {
		t.Errorf("m = %v, want %.0f within 1%%", got, want)
	}
}

func TestReadScheduleShares(t *testing.T) {
	z := sizing(false)
	reads := readSchedule(7, 20, z)
	if want := int((z.readWarmup.Seconds() + 20) * z.readRPS); len(reads) != want {
		t.Fatalf("%d requests, want %d", len(reads), want)
	}
	// The second block is counted: the first one also issues the key its
	// class repeats before any key exists.
	seen := make(map[readReq]bool)
	apps, appNew, decompNew := 0, 0, 0
	for i, r := range reads[:2*readBlock] {
		if want := time.Duration(i) * time.Duration(float64(time.Second)/z.readRPS); r.Due != want {
			t.Fatalf("request %d due at %v, want %v", i, r.Due, want)
		}
		key := r
		key.Due = 0
		fresh := !seen[key]
		seen[key] = true
		switch {
		case i < readBlock:
		case r.App != "":
			apps++
			if fresh {
				appNew++
			}
		case fresh:
			decompNew++
		}
	}
	if want := int(math.Round(readBlock * z.appShare)); apps != want {
		t.Errorf("%d app requests in a block, want %d", apps, want)
	}
	if want := int(math.Round((readBlock - float64(apps)) * z.decompNewKeys)); decompNew != want {
		t.Errorf("%d new decomposition keys in a block, want %d", decompNew, want)
	}
	if want := int(math.Round(float64(apps) * z.appNewKeys)); appNew != want {
		t.Errorf("%d new app keys in a block, want %d", appNew, want)
	}
}

func TestPercentileIsExactOrderStatistic(t *testing.T) {
	ok := []float64{5, 1, 4, 2, 3}
	inf := math.Inf(1)
	for _, tc := range []struct {
		failed int
		q      float64
		want   float64
	}{
		{0, 0.5, 3},
		{0, 0.9, 5},
		{0, 0.2, 1},
		{1, 0.5, 3},    // rank ceil(0.5·6) = 3 of 1,2,3,4,5,+Inf
		{1, 0.9, inf},  // rank 6: the failed op
		{5, 0.5, 5},    // rank 5 of 1,2,3,4,5 and five +Inf
		{5, 0.65, inf}, // rank 7
		{5, 0.4, 4},
	} {
		if got := percentile(ok, tc.failed, tc.q); got != tc.want {
			t.Errorf("percentile(%v, failed %d, %v) = %v, want %v", ok, tc.failed, tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 3, 0.5); !math.IsInf(got, 1) {
		t.Errorf("all failed: %v, want +Inf", got)
	}
	if got := percentile(nil, 0, 0.5); got != 0 {
		t.Errorf("nothing attempted: %v, want 0", got)
	}
	if ok[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) in Python.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 100}, -23.75, 124.75}, // Python extrapolates below two points too
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestCoveredUnionsOverlaps(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	within := interval{at(0), at(100)}
	ivs := []interval{{at(10), at(30)}, {at(20), at(40)}, {at(90), at(150)}, {at(50), at(50)}}
	if got, want := covered(within, ivs), 40*time.Millisecond; got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}
	noisy := []float64{60, 140, 70, 130, 100, 90, 150, 50, 110, 100}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		bound          float64
		want           string
	}{
		{"faster everywhere", parent, faster, 0.1, "improved"},
		{"slower beyond the bound", parent, slower, 0.1, "regressed"},
		{"slower within the bound", parent, slower, 0.5, "unchanged"},
		{"same", parent, parent, 0.1, "unchanged"},
		{"parent spread wider than the bound", noisy, parent, 0.1, "unresolved"},
		{"unbounded metric, slower on nine pairs in ten", parent, slower, -1, "regressed"},
	} {
		if got := judge(tc.parent, tc.change, true, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestParseTracesChargesInnermostModuleFrame(t *testing.T) {
	const out = `File: benchmark
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mapaccess2_fast64
             strongdecomp/internal/cluster.(*Tree).DepthOf (inline)
             strongdecomp/internal/core.memberTreeDepth
             main.main
-----------+-------------------------------------------------------
      10ms   slices.Sort[go.shape.[]int,go.shape.int] (inline)
             strongdecomp/internal/rg.(*state).collectProposals
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      50ms   strongdecomp/internal/service/httpapi.(*api).compute.func1
             net/http.HandlerFunc.ServeHTTP
-----------+-------------------------------------------------------
`
	shares, err := parseTraces(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cluster": 0.3, "rg": 0.1, "other": 0.1, "httpapi": 0.5}
	for _, b := range profileBuckets {
		if math.Abs(shares[b]-want[b]) > 1e-9 {
			t.Errorf("profile.%s = %v, want %v", b, shares[b], want[b])
		}
	}
}
