package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
)

// TestPutGraphSpillsOneEncoding: with a data directory, a stored graph's
// spill file holds exactly its encoding, and the OnGraphStored hook gets
// the same bytes. Storing the graph again does not rewrite the file, and
// still fires the hook, whose bytes are the same encoding of the mapped
// graph.
func TestPutGraphSpillsOneEncoding(t *testing.T) {
	dir := t.TempDir()
	var hooked [][]byte
	s, err := New(Config{DataDir: dir, Cluster: ClusterHooks{
		OnGraphStored: func(_ string, snap func() []byte) { hooked = append(hooked, snap()) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := graph.Torus(5, 6)
	hash := s.PutGraph(g)
	want := graphio.EncodeCSR(g)
	file, err := os.ReadFile(filepath.Join(dir, "graphs", hash+".csr"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want) {
		t.Fatal("spill file is not the graph's encoding")
	}
	if len(hooked) != 1 || !bytes.Equal(hooked[0], want) {
		t.Fatalf("hook got %d snapshots, want the one spilled", len(hooked))
	}
	s.PutGraph(g)
	if len(hooked) != 2 || !bytes.Equal(hooked[1], want) {
		t.Fatalf("storing a held graph again: hook got %d snapshots, want 2 equal ones", len(hooked))
	}
	if st := s.Stats(); st.Persist.GraphSaves != 1 {
		t.Fatalf("graph saves = %d, want 1", st.Persist.GraphSaves)
	}
}

// TestPutGraphRewritesCorruptSnapshot: a bit-flipped snapshot already at
// the graph's path fails its checksum when the upload maps it, so it is
// quarantined and rewritten from the upload's own bytes.
func TestPutGraphRewritesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	algo, _ := registerPersistStub(t)
	s := newPersistentService(t, dir, algo)
	g := graph.Grid(5, 6)
	hash := graphio.Hash(g)
	want := graphio.EncodeCSR(g)
	bad := bytes.Clone(want)
	bad[len(bad)/2] ^= 0x04
	path := filepath.Join(dir, "graphs", hash+".csr")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	s.PutGraph(g)
	if file, err := os.ReadFile(path); err != nil || !bytes.Equal(file, want) {
		t.Fatalf("corrupt snapshot not rewritten from the upload (err %v)", err)
	}
	if file, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(file, bad) {
		t.Fatalf("corrupt snapshot not quarantined as found (err %v)", err)
	}
	if st := s.Stats(); st.Persist.Quarantined != 1 || st.Persist.GraphSaves != 1 {
		t.Fatalf("persist stats %+v, want 1 quarantined and 1 save", st.Persist)
	}
	if got, ok := s.GetGraph(hash); !ok || graphio.Hash(got) != hash {
		t.Fatal("rewritten graph not served")
	}
}

// TestPutGraphSpillFailureKeepsHeapGraph: when the spill fails (here the
// graphs directory is a regular file, which fails as root too), the upload
// is still stored, as the heap graph itself, and served; the failure is
// counted and the hook still gets the snapshot. Once the directory is
// back, uploading the graph again spills it.
func TestPutGraphSpillFailureKeepsHeapGraph(t *testing.T) {
	dir := t.TempDir()
	algo, count := registerPersistStub(t)
	var hooked []byte
	s, err := New(Config{DataDir: dir, DefaultAlgorithm: algo, Cluster: ClusterHooks{
		OnGraphStored: func(_ string, snap func() []byte) { hooked = snap() },
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	graphs := filepath.Join(dir, "graphs")
	if err := os.Remove(graphs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(graphs, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	g := graph.Cycle(20)
	hash := s.PutGraph(g)
	if got, ok := s.GetGraph(hash); !ok || got != g {
		t.Fatal("upload with a failed spill is not served from the heap graph")
	}
	if st := s.Stats(); st.Persist.SaveErrors != 1 || st.Persist.GraphSaves != 0 {
		t.Fatalf("persist stats %+v, want 1 save error and no save", st.Persist)
	}
	if !bytes.Equal(hooked, graphio.EncodeCSR(g)) {
		t.Fatal("hook did not get the snapshot after a failed spill")
	}
	res, err := s.Decompose(context.Background(), &Request{Hash: hash})
	if err != nil || len(res.Decomposition.Assign) != g.N() || count.Load() != 1 {
		t.Fatalf("decompose by hash after a failed spill: %v", err)
	}

	if err := os.Remove(graphs); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(graphs, 0o755); err != nil {
		t.Fatal(err)
	}
	s.PutGraph(g)
	file, err := os.ReadFile(filepath.Join(graphs, hash+".csr"))
	if err != nil || !bytes.Equal(file, hooked) {
		t.Fatalf("second upload did not retry the spill (err %v)", err)
	}
	if st := s.Stats(); st.Persist.SaveErrors != 1 || st.Persist.GraphSaves != 1 {
		t.Fatalf("persist stats %+v, want 1 save error and 1 save", st.Persist)
	}
}

// TestAdmitGraphRejectsBadSnapshots: a replica snapshot that is truncated,
// bit-flipped, or of another graph fails with ErrInvalidRequest and
// stores nothing; the intact one is stored.
func TestAdmitGraphRejectsBadSnapshots(t *testing.T) {
	dir := t.TempDir()
	s := newPersistentService(t, dir, "")
	g := graph.Path(30)
	hash := graphio.Hash(g)
	snap := graphio.EncodeCSR(g)
	flipped := bytes.Clone(snap)
	flipped[40] ^= 0x01
	for name, body := range map[string][]byte{
		"truncated":   snap[:len(snap)-1],
		"bit-flipped": flipped,
		"wrong-hash":  graphio.EncodeCSR(graph.Path(31)),
	} {
		if err := s.AdmitGraph(hash, body); err == nil {
			t.Fatalf("%s snapshot admitted", name)
		}
		if _, ok := s.GetGraph(hash); ok {
			t.Fatalf("%s snapshot stored", name)
		}
	}
	if err := s.AdmitGraph(hash, snap); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.GetGraph(hash); !ok || graphio.Hash(got) != hash {
		t.Fatal("intact snapshot not stored")
	}
}

// TestStoredGraphsLeaveTheHeap: with a data directory the graph store
// holds mapped snapshots, so storing 64 graphs raises the live heap by
// less than a quarter of their summed footprint; without one, the store
// holds the heap graphs and the heap rises by at least that sum.
func TestStoredGraphsLeaveTheHeap(t *testing.T) {
	// graphio maps snapshots on Linux and Darwin, and its arrays alias the
	// mapping on 64-bit little-endian hosts; elsewhere it reads them in.
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" ||
		strconv.IntSize != 64 || binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("no zero-copy snapshot mapping on this host")
	}
	heapAlloc := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	store := func(dataDir string) (rise, footprint int64) {
		s, err := New(Config{DataDir: dataDir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		before := heapAlloc()
		for i := 0; i < 64; i++ {
			g := graph.Cycle(2000 + i)
			footprint += int64(g.MemoryFootprint())
			s.PutGraph(g)
		}
		rise = heapAlloc() - before
		runtime.KeepAlive(s)
		return rise, footprint
	}
	rise, sum := store(t.TempDir())
	t.Logf("data directory: heap rose %d B for %d B of stored graphs", rise, sum)
	if rise >= sum/4 {
		t.Errorf("with a data directory the heap rose %d B for %d B of stored graphs, want < %d", rise, sum, sum/4)
	}
	rise, sum = store("")
	t.Logf("no data directory: heap rose %d B for %d B of stored graphs", rise, sum)
	if rise < sum {
		t.Errorf("without a data directory the heap rose %d B for %d B of stored graphs, want >= %d", rise, sum, sum)
	}
}
