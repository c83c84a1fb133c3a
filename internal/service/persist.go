package service

// The disk tier of the serving layer. When Config.DataDir is set, the
// Service becomes persistent: every stored graph is spilled to a binary
// CSR snapshot (content-addressed by its graphio.Hash) and held in memory
// as the mapping of that file, loaded back the same way on a memory miss;
// and every computed result and app answer is spilled by its tier
// (tier.go) to a JSON record keyed by (graph hash, params key). Both
// survive restarts — a rebooted server answers GET /v1/graphs/{hash},
// repeated decompositions and repeated app requests without re-upload or
// recomputation.
//
// Layout under the data directory:
//
//	<dir>/graphs/<graph-hash>.csr            binary CSR snapshot
//	<dir>/results/<graph-hash>-<params>.json persisted result record
//	<dir>/apps/<graph-hash>-<params>.json    persisted application record
//
// where <params> is the lowercase hex SHA-256 of the canonical Params.Key
// bytes (for app records, of the app-prefixed key — see appParamsKey).
// Every file is written via an adjacent temp file + atomic rename.
//
// Corruption policy: a file that fails checksum, decoding, or structural
// validation is never served. It is quarantined — renamed to
// "<name>.corrupt" so operators can inspect it — counted in
// PersistStats.Quarantined, and treated as a miss (the graph is gone, the
// result recomputes).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
)

// persistStore is the graph half of the disk tier, plus the quarantine
// and the counters every tier shares. All operations are best-effort and
// self-contained: a failed save is counted, a corrupt file is quarantined,
// and the caller proceeds as on a plain miss.
type persistStore struct {
	graphDir string

	graphSaves    atomic.Int64
	graphDiskHits atomic.Int64
	quarantined   atomic.Int64
	saveErrors    atomic.Int64
}

// newPersistStore creates the graph directory under dir; each tier
// creates its own record directory (newTier).
func newPersistStore(dir string) (*persistStore, error) {
	p := &persistStore{graphDir: filepath.Join(dir, "graphs")}
	if err := mkdirData(p.graphDir); err != nil {
		return nil, err
	}
	return p, nil
}

// mkdirData creates one directory of the data-directory layout.
func mkdirData(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: data dir: %w", err)
	}
	return nil
}

// validHash reports whether h is a plausible graphio.Hash (64 lowercase
// hex characters). Hashes reach the disk tier from request bodies, so
// anything else must never touch a file path.
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// graphPath returns the snapshot path of a graph hash.
func (p *persistStore) graphPath(hash string) string {
	return filepath.Join(p.graphDir, hash+".csr")
}

// quarantine renames a bad file out of the serving namespace. The rename
// (not a delete) keeps the evidence for operators. Concurrent readers of
// the same corrupt file race into this path together; the rename is the
// arbiter — it succeeds for exactly one of them (the others find the
// source already gone) — so the counter moves once per corrupt file and
// there is no double-rename error to surface.
func (p *persistStore) quarantine(path string) {
	if err := os.Rename(path, path+".corrupt"); err == nil {
		p.quarantined.Add(1)
	}
}

// storeGraph spills a graph's snapshot bytes, unless an intact snapshot
// of the graph is already at its path, and returns the graph mapped from
// that file; content addressing makes this idempotent. A file at the path
// that fails its checksum or content hash is quarantined and rewritten
// from snap. snap must be a snapshot of the graph named hash, checked or
// encoded by the caller. nil means a failed spill, counted in saveErrors,
// or a written file that fails its checksum, and the caller keeps its
// heap graph. Where the host cannot map, the graph returned is read from
// the file into the heap.
func (p *persistStore) storeGraph(hash string, snap []byte) *graph.Graph {
	if !validHash(hash) {
		return nil
	}
	path := p.graphPath(hash)
	if _, err := os.Stat(path); err == nil {
		if g, ok := p.openGraph(path, hash); ok {
			return g
		}
	}
	if err := writeFileAtomic(path, snap); err != nil {
		p.saveErrors.Add(1)
		return nil
	}
	p.graphSaves.Add(1)
	g, err := graphio.LoadCSRTrusted(path)
	if err != nil {
		return nil
	}
	return g
}

// hasGraph reports whether a snapshot of hash is spilled at its path.
func (p *persistStore) hasGraph(hash string) bool {
	if !validHash(hash) {
		return false
	}
	_, err := os.Stat(p.graphPath(hash))
	return err == nil
}

// loadGraph opens the spilled snapshot of hash, if present and intact.
func (p *persistStore) loadGraph(hash string) (*graph.Graph, bool) {
	if !validHash(hash) {
		return nil, false
	}
	path := p.graphPath(hash)
	if _, err := os.Stat(path); err != nil {
		return nil, false
	}
	g, ok := p.openGraph(path, hash)
	if ok {
		p.graphDiskHits.Add(1)
	}
	return g, ok
}

// openGraph opens the snapshot at path and checks it. The snapshot's own
// checksum proves the bytes are as written (the writer only serializes
// valid graphs, so the structural pass is skipped), and the content hash
// is recomputed so a misplaced or stale file can never impersonate
// another graph. Any failure quarantines the file.
func (p *persistStore) openGraph(path, hash string) (*graph.Graph, bool) {
	g, err := graphio.LoadCSRTrusted(path)
	if err != nil || graphio.Hash(g) != hash {
		p.quarantine(path)
		return nil, false
	}
	return g, true
}

// persistedResult is the on-disk record of one computed result. The
// schema string gates decoding the way the snapshot version does: bump it
// on any layout change.
type persistedResult struct {
	Schema    string `json:"schema"`
	GraphHash string `json:"graph_hash"`
	// ParamsKey is the canonical Params.Key bytes (base64 on the wire via
	// encoding/json); it must round-trip to the requested key exactly.
	ParamsKey []byte  `json:"params_key"`
	Kind      string  `json:"kind"`
	Algo      string  `json:"algo"`
	Eps       float64 `json:"eps,omitempty"`
	Seed      int64   `json:"seed"`

	K       int   `json:"k"`
	Colors  int   `json:"colors,omitempty"`
	Assign  []int `json:"assign"`
	Color   []int `json:"color,omitempty"`
	Centers []int `json:"centers,omitempty"`

	Trees []persistedTree `json:"trees,omitempty"`

	Rounds    int64 `json:"rounds"`
	ElapsedNS int64 `json:"elapsed_ns"`
}

// persistedTree is the on-disk form of a cluster Steiner tree: the
// cluster.Tree layout verbatim (nodes parents-first, parent as indexes into
// nodes). Root -1 marks an absent tree slot.
type persistedTree struct {
	Root   int   `json:"root"`
	Nodes  []int `json:"nodes,omitempty"`
	Parent []int `json:"parent,omitempty"`
}

// resultSchema versions persistedResult. v2 stores trees as index-linked
// slices; v1 records (map-shaped trees) fail the gate and are recomputed.
const resultSchema = "strongdecomp/result/v2"

// resultCodec is the result tier's codec. It has no verify hook: a
// decoded record is checked for shape only (see decodeResult).
var resultCodec = codec[*Result]{
	dir:    "results",
	encode: encodeResult,
	decode: decodeResult,
	fits:   (*Result).coversN,
}

// EncodeResultRecord serializes a served result into the same
// schema-gated JSON record the disk tier spills — the wire form cluster
// peers exchange for replication and peer-cache lookups. paramsKey is the
// canonical Params.Key bytes. Results carrying neither a carving nor a
// decomposition cannot be encoded.
func EncodeResultRecord(graphHash string, paramsKey string, res *Result) ([]byte, error) {
	data, err := encodeResult(cacheKey{hash: graphHash, params: paramsKey}, res)
	if data == nil && err == nil {
		return nil, fmt.Errorf("service: result carries no payload to encode")
	}
	return data, err
}

// DecodeResultRecord is the inverse of EncodeResultRecord: it decodes and
// validates a result record against the expected graph hash and params
// key. n is the resolved graph's node count; a negative n skips the
// node-count cross-checks (record-internal consistency is still enforced)
// for callers that admit records for graphs they do not hold locally.
func DecodeResultRecord(data []byte, graphHash string, paramsKey string, n int) (*Result, bool) {
	return decodeResult(data, cacheKey{hash: graphHash, params: paramsKey}, n)
}

// encodeResult assembles and marshals the on-disk/on-wire record of a
// result; nil data with a nil error means the result carries no payload
// worth persisting.
func encodeResult(key cacheKey, res *Result) ([]byte, error) {
	rec := persistedResult{
		Schema:    resultSchema,
		GraphHash: res.GraphHash,
		ParamsKey: []byte(key.params),
		Kind:      res.Kind,
		Algo:      res.Algo,
		Eps:       res.Eps,
		Seed:      res.Seed,
		Rounds:    res.Rounds,
		ElapsedNS: int64(res.Elapsed),
	}
	switch {
	case res.Carving != nil:
		c := res.Carving
		rec.K, rec.Assign, rec.Centers = c.K, c.Assign, c.Centers
		for _, t := range c.Trees {
			if t == nil {
				rec.Trees = append(rec.Trees, persistedTree{Root: -1})
				continue
			}
			rec.Trees = append(rec.Trees, persistedTree{Root: t.Root, Nodes: t.Nodes, Parent: t.Parent})
		}
	case res.Decomposition != nil:
		d := res.Decomposition
		rec.K, rec.Colors, rec.Assign = d.K, d.Colors, d.Assign
		rec.Color, rec.Centers = d.Color, d.Centers
	default:
		return nil, nil
	}
	return json.Marshal(&rec)
}

// decodeResult turns a record's bytes back into a Result, enforcing every
// consistency rule that makes the record safe to serve: schema and key
// match, assignment length equals the graph's node count, cluster ids in
// range, and color metadata shaped like the kind demands. A negative n
// means the caller cannot resolve the graph locally (a cluster peer
// admitting a replica): the record's own assignment length stands in for
// the node count, so every range check below still holds internally.
func decodeResult(data []byte, key cacheKey, n int) (*Result, bool) {
	var rec persistedResult
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, false
	}
	if rec.Schema != resultSchema || rec.GraphHash != key.hash || string(rec.ParamsKey) != key.params {
		return nil, false
	}
	if n < 0 {
		n = len(rec.Assign)
	}
	if rec.K < 0 || len(rec.Assign) != n {
		return nil, false
	}
	minAssign := cluster.Unclustered // carvings may leave nodes unclustered
	if rec.Kind == "decompose" {
		minAssign = 0 // decompositions cover every node
	}
	for _, c := range rec.Assign {
		if c < minAssign || c >= rec.K {
			return nil, false
		}
	}
	// Centers and trees are node-id metadata; a parseable-but-corrupted
	// record must not smuggle out-of-range ids into responses.
	if rec.Centers != nil && len(rec.Centers) != rec.K {
		return nil, false
	}
	for _, c := range rec.Centers {
		if c < 0 || c >= n {
			return nil, false
		}
	}
	// Trees must have the cluster.Tree layout, which also rules out cycles.
	var mark []bool
	for _, t := range rec.Trees {
		if t.Root == -1 && len(t.Nodes) == 0 && len(t.Parent) == 0 {
			continue // an absent tree slot
		}
		if mark == nil {
			mark = make([]bool, n)
		}
		tr := cluster.Tree{Root: t.Root, Nodes: t.Nodes, Parent: t.Parent}
		if tr.CheckLayout(mark) != nil {
			return nil, false
		}
	}
	out := &Result{
		GraphHash: rec.GraphHash,
		Kind:      rec.Kind,
		Algo:      rec.Algo,
		Eps:       rec.Eps,
		Seed:      rec.Seed,
		Rounds:    rec.Rounds,
		Elapsed:   time.Duration(rec.ElapsedNS),
	}
	switch rec.Kind {
	case "carve":
		c := &cluster.Carving{K: rec.K, Assign: rec.Assign, Centers: orNil(rec.Centers)}
		for _, t := range rec.Trees {
			if t.Root < 0 {
				c.Trees = append(c.Trees, nil)
				continue
			}
			c.Trees = append(c.Trees, &cluster.Tree{Root: t.Root, Nodes: t.Nodes, Parent: t.Parent})
		}
		out.Carving = c
	case "decompose":
		if len(rec.Color) != rec.K {
			return nil, false
		}
		for _, col := range rec.Color {
			if col < 0 || col >= rec.Colors {
				return nil, false
			}
		}
		out.Decomposition = &cluster.Decomposition{
			K: rec.K, Colors: rec.Colors,
			Assign: rec.Assign, Color: orNil(rec.Color), Centers: orNil(rec.Centers),
		}
	default:
		return nil, false
	}
	return out, true
}

// persistedApp is the on-disk record of one application answer. Like
// persistedResult it is schema-gated and fully validated on load; unlike
// results, app records never travel between peers — the decomposition is
// what replicates, and apps recompute cheaply from it.
type persistedApp struct {
	Schema    string `json:"schema"`
	GraphHash string `json:"graph_hash"`
	// ParamsKey is the app-prefixed cache key's params bytes (see
	// appParamsKey); it must round-trip to the requested key exactly.
	ParamsKey []byte `json:"params_key"`
	App       string `json:"app"`
	Algo      string `json:"algo"`
	Seed      int64  `json:"seed"`

	InMIS        []bool   `json:"in_mis,omitempty"`
	ColorOf      []int    `json:"color_of,omitempty"`
	PaletteSize  int      `json:"palette_size,omitempty"`
	Diameter     int      `json:"diameter,omitempty"`
	SpannerEdges [][2]int `json:"spanner_edges,omitempty"`
	TreeEdges    int      `json:"tree_edges,omitempty"`
	CrossEdges   int      `json:"cross_edges,omitempty"`

	ScheduleCost int   `json:"schedule_cost"`
	Rounds       int64 `json:"rounds"`
	ElapsedNS    int64 `json:"elapsed_ns"`
}

// appSchema versions persistedApp.
const appSchema = "strongdecomp/app/v1"

// appCodec is the app tier's codec; with strict set, a decoded record
// must also pass its verifier (verifyAppResult) before it is served.
func appCodec(strict bool) codec[*AppResult] {
	c := codec[*AppResult]{
		dir:    "apps",
		encode: encodeApp,
		decode: decodeApp,
		fits:   (*AppResult).coversN,
	}
	if strict {
		c.verify = func(g *graph.Graph, res *AppResult) error {
			if err := verifyAppResult(g, res); err != nil {
				return err
			}
			res.Verified = true
			return nil
		}
	}
	return c
}

// encodeApp marshals the on-disk record of one application answer.
func encodeApp(key cacheKey, res *AppResult) ([]byte, error) {
	return json.Marshal(&persistedApp{
		Schema:       appSchema,
		GraphHash:    res.GraphHash,
		ParamsKey:    []byte(key.params),
		App:          res.App,
		Algo:         res.Algo,
		Seed:         res.Seed,
		InMIS:        res.InMIS,
		ColorOf:      res.ColorOf,
		PaletteSize:  res.PaletteSize,
		Diameter:     res.Diameter,
		SpannerEdges: res.SpannerEdges,
		TreeEdges:    res.TreeEdges,
		CrossEdges:   res.CrossEdges,
		ScheduleCost: res.ScheduleCost,
		Rounds:       res.Rounds,
		ElapsedNS:    int64(res.Elapsed),
	})
}

// decodeApp turns an app record's bytes back into an AppResult, enforcing
// the consistency rules that make it safe to serve: schema, hash, and key
// match; a valid app name; per-node payloads covering exactly n nodes;
// node ids and counters in range. Semantic verification (is the MIS
// actually maximal?) is the strict-mode serve path's job, not the
// decoder's.
func decodeApp(data []byte, key cacheKey, n int) (*AppResult, bool) {
	var rec persistedApp
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, false
	}
	if rec.Schema != appSchema || rec.GraphHash != key.hash || string(rec.ParamsKey) != key.params {
		return nil, false
	}
	if !validApp(rec.App) || rec.Rounds < 0 || rec.ScheduleCost < 0 {
		return nil, false
	}
	out := &AppResult{
		GraphHash:    rec.GraphHash,
		App:          rec.App,
		Algo:         rec.Algo,
		Seed:         rec.Seed,
		InMIS:        orNil(rec.InMIS),
		ColorOf:      orNil(rec.ColorOf),
		PaletteSize:  rec.PaletteSize,
		Diameter:     rec.Diameter,
		SpannerEdges: orNil(rec.SpannerEdges),
		TreeEdges:    rec.TreeEdges,
		CrossEdges:   rec.CrossEdges,
		ScheduleCost: rec.ScheduleCost,
		Rounds:       rec.Rounds,
		Elapsed:      time.Duration(rec.ElapsedNS),
	}
	switch rec.App {
	case AppMIS:
		if len(rec.InMIS) != n {
			return nil, false
		}
	case AppColoring:
		if len(rec.ColorOf) != n || rec.PaletteSize <= 0 {
			return nil, false
		}
		for _, c := range rec.ColorOf {
			if c < 0 || c >= rec.PaletteSize {
				return nil, false
			}
		}
	case AppDiameter:
		if rec.Diameter < 0 || (n > 0 && rec.Diameter >= n) {
			return nil, false
		}
	case AppSpanner:
		if rec.TreeEdges < 0 || rec.CrossEdges < 0 || rec.TreeEdges+rec.CrossEdges != len(rec.SpannerEdges) {
			return nil, false
		}
		for _, e := range rec.SpannerEdges {
			if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n || e[0] == e[1] {
				return nil, false
			}
		}
	}
	return out, true
}

// orNil maps an empty slice to nil. The encoders omit empty slices, so
// decoding them as nil makes every accepted record decode to the value
// its re-encoding decodes to.
func orNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// writeFileAtomic writes data via an adjacent temp file and a rename, the
// same crash-safety discipline as the graphio snapshot writer.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		// Only a failed step leaves the temp file; after a successful
		// rename its name is gone, and removing it would always fail.
		os.Remove(tmp.Name())
	}
	return err
}

// PersistStats is the disk-tier block of a Stats snapshot; present only
// when the service runs with a data directory.
type PersistStats struct {
	// GraphSaves / ResultSaves count successful spills over the service
	// lifetime (not files on disk — earlier runs contribute files too).
	GraphSaves  int64 `json:"graph_saves"`
	ResultSaves int64 `json:"result_saves"`
	// AppSaves counts successfully spilled application records.
	AppSaves int64 `json:"app_saves"`
	// GraphDiskHits / ResultDiskHits count memory misses answered from
	// disk — after a restart, the entire working set returns this way.
	GraphDiskHits  int64 `json:"graph_disk_hits"`
	ResultDiskHits int64 `json:"result_disk_hits"`
	// AppDiskHits counts app-cache memory misses answered from disk.
	AppDiskHits int64 `json:"app_disk_hits"`
	// Quarantined counts corrupt files renamed aside instead of served.
	Quarantined int64 `json:"quarantined"`
	// SaveErrors counts failed spill attempts (disk full, permissions).
	SaveErrors int64 `json:"save_errors"`
}
