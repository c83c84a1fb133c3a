package graphio

// Binary CSR snapshots: the native persistence format of graph.Graph.
//
// A .csr file is the graph's two flat CSR arrays written verbatim behind a
// fixed header, with a SHA-256 checksum footer over everything before it:
//
//	[0:8)    magic "SDCSRBIN"
//	[8:12)   format version, uint32 LE (currently 1)
//	[12:16)  flags, uint32 LE (reserved, must be 0)
//	[16:24)  n = node count, uint64 LE
//	[24:32)  m = undirected edge count, uint64 LE
//	[32:...) offsets, (n+1)·8 bytes of int64 LE
//	[...:..) targets, 2m·8 bytes of int64 LE
//	[-32:)   SHA-256 over every preceding byte
//
// Because the payload *is* the in-memory representation, loading is not a
// parse: the mmap-backed loader (LoadCSR) verifies the checksum and wraps
// the mapped pages directly as the graph's adjacency arrays — zero copies,
// no Builder pass, no per-edge work. DESIGN.md ("Binary CSR snapshot
// format") documents the layout, versioning, and compatibility rules.
//
// Corruption is a first-class outcome, not a panic: a truncated file, a
// flipped bit, a wrong magic, or an unsupported version all surface as
// errors matching ErrSnapshotCorrupt / ErrSnapshotVersion, which the
// serving layer's tiered store uses to quarantine bad files instead of
// serving them.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"unsafe"

	"strongdecomp/internal/graph"
)

// Typed snapshot failure modes. Callers branch with errors.Is; the serving
// layer's disk tier quarantines on either.
var (
	// ErrSnapshotCorrupt marks a .csr file whose bytes cannot be a valid
	// snapshot: bad magic, truncation, checksum mismatch, impossible
	// header sizes, or CSR arrays violating the graph invariants.
	ErrSnapshotCorrupt = errors.New("graphio: corrupt csr snapshot")
	// ErrSnapshotVersion marks a structurally plausible snapshot written
	// by a format version this build does not understand.
	ErrSnapshotVersion = errors.New("graphio: unsupported csr snapshot version")
)

// snapshotMagic identifies a binary CSR snapshot; it is the first 8 bytes
// of every .csr file.
const snapshotMagic = "SDCSRBIN"

// SnapshotVersion is the format version this build reads and writes.
// Readers reject other versions with ErrSnapshotVersion rather than
// guessing: the payload is raw memory, so a misread layout would corrupt
// silently. The compatibility policy (DESIGN.md) is: bump on any layout
// change, never reuse a version number.
const SnapshotVersion = 1

// snapshotHeaderLen and snapshotFooterLen frame the payload.
const (
	snapshotHeaderLen = 32
	snapshotFooterLen = sha256.Size
)

// maxSnapshotEdges caps the edge count a snapshot header may declare, so a
// few adversarial header bytes cannot demand a pathological allocation
// (the node cap is the package-wide MaxNodes).
const maxSnapshotEdges = 1 << 33

// wordBytes is the on-disk size of one offsets/targets element.
const wordBytes = 8

// hostIsCastable reports whether this machine can reinterpret the on-disk
// little-endian int64 payload as in-memory []int64/[]int without a
// conversion pass: 64-bit ints and little-endian byte order.
func hostIsCastable() bool {
	one := uint16(1)
	return unsafe.Sizeof(int(0)) == wordBytes && *(*byte)(unsafe.Pointer(&one)) == 1
}

// snapshotSize returns the exact byte length of a snapshot of an n-node,
// m-edge graph.
func snapshotSize(n, m int) int64 {
	return snapshotHeaderLen + int64(n+1)*wordBytes + 2*int64(m)*wordBytes + snapshotFooterLen
}

// EncodeCSR returns g's binary CSR snapshot (version SnapshotVersion),
// checksum footer included, in one buffer of exactly the snapshot's size.
// On 64-bit little-endian hosts each array is copied in as raw memory;
// other hosts encode it word by word.
func EncodeCSR(g *graph.Graph) []byte {
	buf := make([]byte, snapshotHeaderLen, int(snapshotSize(g.N(), g.M())))
	copy(buf, snapshotMagic)
	binary.LittleEndian.PutUint32(buf[8:], SnapshotVersion)
	// buf[12:16) is the reserved flags word, left zero.
	binary.LittleEndian.PutUint64(buf[16:], uint64(g.N()))
	binary.LittleEndian.PutUint64(buf[24:], uint64(g.M()))
	offsets, targets := g.CSR()
	buf = appendWords(buf, offsets)
	buf = appendWords(buf, targets)
	// g may be a mapped snapshot, unmapped once g is unreachable; the
	// copies above read its arrays through views that do not keep g alive.
	runtime.KeepAlive(g)
	// The checksum covers header and payload, not the footer itself.
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// appendWords appends words to buf as little-endian 64-bit words.
func appendWords[T int | int64](buf []byte, words []T) []byte {
	if len(words) > 0 && hostIsCastable() {
		return append(buf, unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*wordBytes)...)
	}
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
	}
	return buf
}

// WriteCSR writes g to w as a binary CSR snapshot: the bytes of
// EncodeCSR, in one call.
func WriteCSR(w io.Writer, g *graph.Graph) error {
	if _, err := w.Write(EncodeCSR(g)); err != nil {
		return fmt.Errorf("graphio: write snapshot: %w", err)
	}
	return nil
}

// snapshotHeader is the decoded fixed header of a snapshot.
type snapshotHeader struct {
	version uint32
	n, m    int
}

// parseSnapshotHeader validates magic, version, flags, and declared sizes.
func parseSnapshotHeader(hdr []byte) (snapshotHeader, error) {
	var out snapshotHeader
	if len(hdr) < snapshotHeaderLen {
		return out, fmt.Errorf("%w: %d-byte file is shorter than the %d-byte header", ErrSnapshotCorrupt, len(hdr), snapshotHeaderLen)
	}
	if string(hdr[0:8]) != snapshotMagic {
		return out, fmt.Errorf("%w: bad magic %q", ErrSnapshotCorrupt, hdr[0:8])
	}
	out.version = binary.LittleEndian.Uint32(hdr[8:12])
	if out.version != SnapshotVersion {
		return out, fmt.Errorf("%w: version %d (this build reads %d)", ErrSnapshotVersion, out.version, SnapshotVersion)
	}
	if flags := binary.LittleEndian.Uint32(hdr[12:16]); flags != 0 {
		return out, fmt.Errorf("%w: reserved flags 0x%x set", ErrSnapshotCorrupt, flags)
	}
	n := binary.LittleEndian.Uint64(hdr[16:24])
	m := binary.LittleEndian.Uint64(hdr[24:32])
	if n > MaxNodes {
		return out, fmt.Errorf("%w: header declares %d nodes (cap %d)", ErrSnapshotCorrupt, n, MaxNodes)
	}
	if m > maxSnapshotEdges {
		return out, fmt.Errorf("%w: header declares %d edges (cap %d)", ErrSnapshotCorrupt, m, maxSnapshotEdges)
	}
	out.n, out.m = int(n), int(m)
	return out, nil
}

// ReadCSR reads a binary CSR snapshot from an arbitrary reader, verifying
// the checksum and the full graph invariants. This is the streaming
// (copying) decode path used by Read and by HTTP uploads; opening a local
// file goes through LoadCSR, which maps the payload instead of copying it.
func ReadCSR(r io.Reader) (*graph.Graph, error) {
	h := sha256.New()
	tr := io.TeeReader(r, h)

	var hdrBuf [snapshotHeaderLen]byte
	if _, err := io.ReadFull(tr, hdrBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %w", ErrSnapshotCorrupt, err)
	}
	hdr, err := parseSnapshotHeader(hdrBuf[:])
	if err != nil {
		return nil, err
	}

	offsets, err := readInt64Words(tr, hdr.n+1)
	if err != nil {
		return nil, fmt.Errorf("%w: reading offsets: %w", ErrSnapshotCorrupt, err)
	}
	targets, err := readIntWords(tr, 2*hdr.m)
	if err != nil {
		return nil, fmt.Errorf("%w: reading targets: %w", ErrSnapshotCorrupt, err)
	}

	want := h.Sum(nil)
	var got [snapshotFooterLen]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return nil, fmt.Errorf("%w: reading checksum footer: %w", ErrSnapshotCorrupt, err)
	}
	if !bytes.Equal(want, got[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}

	g, err := graph.NewFromCSR(offsets, targets)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
	}
	return g, nil
}

// readInt64Words decodes n little-endian 64-bit words, streaming through
// a fixed chunk buffer. The destination grows with the bytes that
// actually arrive (append, geometric growth) rather than being sized
// from n up front: n comes from an attacker-controllable header, and a
// tiny truncated body must never be able to demand a huge allocation.
func readInt64Words(r io.Reader, n int) ([]int64, error) {
	out := make([]int64, 0, min(n, 4096))
	var chunk [512 * wordBytes]byte
	for len(out) < n {
		want := min((n-len(out))*wordBytes, len(chunk))
		if _, err := io.ReadFull(r, chunk[:want]); err != nil {
			return nil, err
		}
		for o := 0; o < want; o += wordBytes {
			out = append(out, int64(binary.LittleEndian.Uint64(chunk[o:o+wordBytes])))
		}
	}
	return out, nil
}

// readIntWords is readInt64Words for an []int destination (the targets
// array), with the same incremental-allocation defense.
func readIntWords(r io.Reader, n int) ([]int, error) {
	out := make([]int, 0, min(n, 4096))
	var chunk [512 * wordBytes]byte
	for len(out) < n {
		want := min((n-len(out))*wordBytes, len(chunk))
		if _, err := io.ReadFull(r, chunk[:want]); err != nil {
			return nil, err
		}
		for o := 0; o < want; o += wordBytes {
			out = append(out, int(int64(binary.LittleEndian.Uint64(chunk[o:o+wordBytes]))))
		}
	}
	return out, nil
}

// decodeSnapshot builds a graph from a complete in-memory (or mapped)
// snapshot image. On 64-bit little-endian hosts, with 8-aligned data, the
// returned graph aliases data; otherwise the arrays are copied out.
// verifyStructure selects the full graph-invariant pass on top of the
// always-on checksum.
func decodeSnapshot(data []byte, verifyStructure bool) (*graph.Graph, error) {
	hdr, err := parseSnapshotHeader(data)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != snapshotSize(hdr.n, hdr.m) {
		return nil, fmt.Errorf("%w: file is %d bytes, header implies %d (truncated or padded)",
			ErrSnapshotCorrupt, len(data), snapshotSize(hdr.n, hdr.m))
	}
	body, footer := data[:len(data)-snapshotFooterLen], data[len(data)-snapshotFooterLen:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], footer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}

	offBytes := body[snapshotHeaderLen : snapshotHeaderLen+(hdr.n+1)*wordBytes]
	tgtBytes := body[snapshotHeaderLen+(hdr.n+1)*wordBytes:]

	var offsets []int64
	var targets []int
	if hostIsCastable() && uintptr(unsafe.Pointer(&offBytes[0]))%wordBytes == 0 {
		offsets = unsafe.Slice((*int64)(unsafe.Pointer(&offBytes[0])), hdr.n+1)
		targets = []int{}
		if hdr.m > 0 {
			targets = unsafe.Slice((*int)(unsafe.Pointer(&tgtBytes[0])), 2*hdr.m)
		}
	} else {
		offsets = make([]int64, hdr.n+1)
		targets = make([]int, 2*hdr.m)
		for i := range offsets {
			offsets[i] = int64(binary.LittleEndian.Uint64(offBytes[i*wordBytes:]))
		}
		for i := range targets {
			targets[i] = int(int64(binary.LittleEndian.Uint64(tgtBytes[i*wordBytes:])))
		}
	}

	if !verifyStructure {
		return graph.WrapCSR(offsets, targets), nil
	}
	g, err := graph.NewFromCSR(offsets, targets)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
	}
	return g, nil
}

// loadSnapshot opens path, preferring an mmap mapping whose lifetime is
// tied to the returned graph (unmapped by a GC cleanup once the graph is
// unreachable); hosts or files that cannot map fall back to a full read.
func loadSnapshot(path string, verifyStructure bool) (*graph.Graph, error) {
	data, unmap, err := mmapFile(path)
	if err != nil {
		// Mapping unavailable (platform, empty file, alignment): read the
		// file into memory and decode from there.
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, fmt.Errorf("graphio: %w", rerr)
		}
		return decodeSnapshot(data, verifyStructure)
	}
	g, err := decodeSnapshot(data, verifyStructure)
	if err != nil {
		unmap()
		return nil, err
	}
	// The graph's CSR slices alias the mapping; unmap only when the graph
	// itself becomes unreachable. (A copying decode — non-castable host —
	// needs the mapping no longer; unmap immediately then.)
	if off, _ := g.CSR(); len(data) >= snapshotHeaderLen+wordBytes &&
		unsafe.SliceData(off) == (*int64)(unsafe.Pointer(&data[snapshotHeaderLen])) {
		runtime.AddCleanup(g, func(u func()) { u() }, unmap)
	} else {
		unmap()
	}
	return g, nil
}

// LoadCSR opens a binary CSR snapshot file with full verification:
// checksum plus the graph invariant pass. On 64-bit little-endian hosts
// the adjacency arrays are the mapped file pages themselves — no copy, no
// Builder pass; the mapping is released automatically when the graph is
// garbage collected.
func LoadCSR(path string) (*graph.Graph, error) {
	return loadSnapshot(path, true)
}

// LoadCSRTrusted opens a snapshot with checksum verification only,
// skipping the O(m log deg) structural pass. Use it exclusively for files
// this process (or a trusted peer) wrote through WriteCSR — the checksum
// proves the bytes are exactly what the writer produced, and the writer
// only ever serializes valid graphs. The serving layer's disk tier loads
// its own spill files through this path.
func LoadCSRTrusted(path string) (*graph.Graph, error) {
	return loadSnapshot(path, false)
}

// DecodeCSR decodes a complete snapshot image with full verification:
// size, checksum and the graph invariant pass. On 64-bit little-endian
// hosts the returned graph's arrays alias data, which the caller must
// then leave unmodified; elsewhere they are copied out.
func DecodeCSR(data []byte) (*graph.Graph, error) {
	return decodeSnapshot(data, true)
}

// SaveCSR writes g to path as a binary snapshot via an adjacent temp file
// and an atomic rename, so a crash mid-write can never leave a truncated
// file at the final name.
func SaveCSR(path string, g *graph.Graph) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".csr-tmp-*")
	if err != nil {
		return fmt.Errorf("graphio: %w", err)
	}
	err = WriteCSR(tmp, g)
	if cerr := tmp.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("graphio: %w", cerr)
	}
	if err == nil {
		if rerr := os.Rename(tmp.Name(), path); rerr != nil {
			err = fmt.Errorf("graphio: %w", rerr)
		}
	}
	if err != nil {
		// Only a failed step leaves the temp file; after a successful
		// rename its name is gone, and removing it would always fail.
		os.Remove(tmp.Name())
	}
	return err
}
