package graphio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"strongdecomp/internal/graph"
)

// assertBitIdenticalCSR demands the two graphs share byte-for-byte equal
// CSR arrays — the snapshot contract is stronger than isomorphism or even
// adjacency identity: the arrays themselves round-trip exactly.
func assertBitIdenticalCSR(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	wo, wt := want.CSR()
	go_, gt := got.CSR()
	if !slices.Equal(wo, go_) {
		t.Fatalf("offsets differ: got %v, want %v", go_, wo)
	}
	if !slices.Equal(wt, gt) {
		t.Fatalf("targets differ: got %v, want %v", gt, wt)
	}
	if got.M() != want.M() {
		t.Fatalf("m = %d, want %d", got.M(), want.M())
	}
}

// TestSnapshotRoundTripAllGenerators is the snapshot property test: for
// every generator family, a write/read cycle through the binary format —
// both the streaming decode and the mmap file path, verified and trusted —
// reproduces the source CSR arrays bit-identically.
func TestSnapshotRoundTripAllGenerators(t *testing.T) {
	for name, g := range generatorCorpus() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteCSR(&buf, g); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, err := ReadCSR(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			assertBitIdenticalCSR(t, g, got)
			if Hash(g) != Hash(got) {
				t.Error("content hash changed across snapshot round trip")
			}

			path := filepath.Join(t.TempDir(), "g.csr")
			if err := Save(path, g); err != nil {
				t.Fatalf("save: %v", err)
			}
			mapped, err := Load(path)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			assertBitIdenticalCSR(t, g, mapped)

			trusted, err := LoadCSRTrusted(path)
			if err != nil {
				t.Fatalf("trusted load: %v", err)
			}
			assertBitIdenticalCSR(t, g, trusted)
		})
	}
}

// TestSnapshotTruncation checks that cutting a valid snapshot at every
// region boundary (and a few interior points) is rejected with
// ErrSnapshotCorrupt by both the streaming and the file loader.
func TestSnapshotTruncation(t *testing.T) {
	g := graph.ClusterGraph(3, 6, 0.5, 42)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	cuts := []int{0, 4, snapshotHeaderLen - 1, snapshotHeaderLen,
		snapshotHeaderLen + 8*(g.N()+1), len(full) - snapshotFooterLen, len(full) - 1}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			trunc := full[:cut]
			if _, err := ReadCSR(bytes.NewReader(trunc)); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("ReadCSR(truncated@%d) = %v, want ErrSnapshotCorrupt", cut, err)
			}
			path := filepath.Join(t.TempDir(), "t.csr")
			if err := os.WriteFile(path, trunc, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadCSR(path); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("LoadCSR(truncated@%d) = %v, want ErrSnapshotCorrupt", cut, err)
			}
		})
	}
}

// TestSnapshotBitFlips flips one bit in every region of a valid snapshot
// (header fields, offsets, targets, checksum footer) and demands a typed
// rejection: nothing corrupt may decode into a graph.
func TestSnapshotBitFlips(t *testing.T) {
	g := graph.ConnectedGnp(24, 0.15, 42)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	positions := []struct {
		name string
		off  int
	}{
		{"magic", 0},
		{"version", 8},
		{"flags", 12},
		{"node-count", 16},
		{"edge-count", 24},
		{"offsets", snapshotHeaderLen},
		{"targets", snapshotHeaderLen + 8*(g.N()+1) + 8},
		{"footer", len(full) - 16},
	}
	for _, pos := range positions {
		t.Run(pos.name, func(t *testing.T) {
			mut := bytes.Clone(full)
			mut[pos.off] ^= 0x10
			_, err := ReadCSR(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("bit flip in %s at byte %d decoded successfully", pos.name, pos.off)
			}
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
				t.Errorf("bit flip in %s: err = %v, want ErrSnapshotCorrupt or ErrSnapshotVersion", pos.name, err)
			}
			path := filepath.Join(t.TempDir(), "m.csr")
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, lerr := LoadCSR(path); lerr == nil {
				t.Errorf("LoadCSR accepted bit flip in %s", pos.name)
			}
		})
	}
}

// TestSnapshotVersionGate pins the version policy: a snapshot declaring a
// future version fails with ErrSnapshotVersion (distinct from corruption),
// even when its checksum is internally consistent.
func TestSnapshotVersionGate(t *testing.T) {
	g := graph.Path(5)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(buf.Bytes())
	mut[8] = 2 // version 2
	// Recompute the footer so only the version differs.
	rehash := shaOf(mut[:len(mut)-snapshotFooterLen])
	copy(mut[len(mut)-snapshotFooterLen:], rehash)
	if _, err := ReadCSR(bytes.NewReader(mut)); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("future version: err = %v, want ErrSnapshotVersion", err)
	}
}

// TestSnapshotRejectsInvalidStructure builds a checksum-valid snapshot
// whose payload violates the CSR invariants (asymmetric adjacency) and
// checks that the validating loader rejects it while the checksum alone
// would not.
func TestSnapshotRejectsInvalidStructure(t *testing.T) {
	// A hand-built "graph" where node 0 lists neighbor 1 but node 1 lists
	// nothing: valid header, valid checksum, invalid CSR.
	data := make([]byte, 0, 128)
	var hdr [snapshotHeaderLen]byte
	copy(hdr[0:8], snapshotMagic)
	hdr[8] = SnapshotVersion
	hdr[16] = 2 // n = 2
	hdr[24] = 1 // m = 1
	data = append(data, hdr[:]...)
	for _, w := range []uint64{0, 1, 2} { // offsets: node 0 has 1 neighbor... but so does node 1
		data = append(data, le64(w)...)
	}
	for _, w := range []uint64{1, 0x7fffffff} { // targets: [1, garbage]
		data = append(data, le64(w)...)
	}
	data = append(data, shaOf(data)...)
	if _, err := ReadCSR(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("invalid structure: err = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestSnapshotDetectAndParseFormat pins the format wiring: extension
// detection, name parsing, and the String form.
func TestSnapshotDetectAndParseFormat(t *testing.T) {
	if f, err := DetectFormat("x/y/graph.csr"); err != nil || f != FormatCSR {
		t.Errorf("DetectFormat(.csr) = %v, %v", f, err)
	}
	if f, err := ParseFormat("csr"); err != nil || f != FormatCSR {
		t.Errorf("ParseFormat(csr) = %v, %v", f, err)
	}
	if FormatCSR.String() != "csr" {
		t.Errorf("FormatCSR.String() = %q", FormatCSR.String())
	}
}

// le64 renders one little-endian 64-bit word.
func le64(w uint64) []byte {
	var b [8]byte
	for i := range b {
		b[i] = byte(w >> (8 * i))
	}
	return b[:]
}

// shaOf returns the SHA-256 of b as a slice (test helper for hand-built
// snapshots).
func shaOf(b []byte) []byte {
	sum := sha256.Sum256(b)
	return sum[:]
}

// TestSnapshotHugeHeaderNoAllocation: a 32-byte body whose header
// declares ~2^33 edges must fail fast on truncation without attempting
// the header-implied multi-gigabyte allocation — the allocation defense
// behind accepting csr uploads over HTTP.
func TestSnapshotHugeHeaderNoAllocation(t *testing.T) {
	var hdr [snapshotHeaderLen]byte
	copy(hdr[0:8], snapshotMagic)
	hdr[8] = SnapshotVersion
	// n = 0, m = maxSnapshotEdges - 1: header-implied payload ≈ 128 GiB.
	m := uint64(maxSnapshotEdges - 1)
	for i := 0; i < 8; i++ {
		hdr[24+i] = byte(m >> (8 * i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadCSR(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("truncated huge-header snapshot allocated %d bytes", grown)
	}
}

// TestSaveCSRLeavesNoTempFile: a successful SaveCSR leaves only the
// snapshot, and one whose rename fails (the target is a non-empty
// directory) returns the error and removes its temp file.
func TestSaveCSRLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	g := graph.Grid(3, 4)
	if err := SaveCSR(filepath.Join(dir, "g.csr"), g); err != nil {
		t.Fatal(err)
	}
	blocked := filepath.Join(dir, "blocked.csr")
	if err := os.MkdirAll(filepath.Join(blocked, "occupant"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveCSR(blocked, g); err == nil {
		t.Fatal("SaveCSR onto a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"blocked.csr", "g.csr"}) {
		t.Fatalf("directory holds %v, want only blocked.csr and g.csr", names)
	}
}

// TestEncodeCSRMatchesWordEncoding checks EncodeCSR's raw-memory array
// copy against the format spelled out word by word: header, offsets and
// targets as little-endian 64-bit words, then SHA-256 over all of it.
func TestEncodeCSRMatchesWordEncoding(t *testing.T) {
	for name, g := range generatorCorpus() {
		want := []byte(snapshotMagic)
		want = binary.LittleEndian.AppendUint32(want, SnapshotVersion)
		want = binary.LittleEndian.AppendUint32(want, 0)
		want = binary.LittleEndian.AppendUint64(want, uint64(g.N()))
		want = binary.LittleEndian.AppendUint64(want, uint64(g.M()))
		offsets, targets := g.CSR()
		for _, o := range offsets {
			want = binary.LittleEndian.AppendUint64(want, uint64(o))
		}
		for _, v := range targets {
			want = binary.LittleEndian.AppendUint64(want, uint64(v))
		}
		sum := sha256.Sum256(want)
		want = append(want, sum[:]...)
		got := EncodeCSR(g)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: EncodeCSR differs from the word-by-word encoding", name)
		}
		if len(got) != cap(got) {
			t.Fatalf("%s: EncodeCSR buffer has len %d, cap %d; want an exact-size buffer", name, len(got), cap(got))
		}
	}
}

// TestDecodeCSRChecksInPlace: DecodeCSR accepts a snapshot image as is,
// with arrays aliasing the image on hosts that can cast it, and rejects a
// truncated image and a flipped bit in every region with a typed error.
func TestDecodeCSRChecksInPlace(t *testing.T) {
	g := graph.ConnectedGnp(40, 0.1, 7)
	data := EncodeCSR(g)
	got, err := DecodeCSR(data)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdenticalCSR(t, g, got)
	if off, _ := got.CSR(); hostIsCastable() && unsafe.SliceData(off) != (*int64)(unsafe.Pointer(&data[snapshotHeaderLen])) {
		t.Error("DecodeCSR copied the offsets on a host that can alias them")
	}
	bad := map[string][]byte{"truncated": data[:len(data)-1]}
	for _, off := range []int{0, 8, 16, snapshotHeaderLen, snapshotHeaderLen + 8*(g.N()+1), len(data) - 1} {
		mut := bytes.Clone(data)
		mut[off] ^= 0x04
		bad[fmt.Sprintf("flip@%d", off)] = mut
	}
	for name, img := range bad {
		if _, err := DecodeCSR(img); !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
			t.Errorf("%s: err = %v, want a typed snapshot error", name, err)
		}
	}
}
