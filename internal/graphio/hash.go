package graphio

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"strongdecomp/internal/graph"
)

// hashDomain versions the hash encoding; bump it if the scheme changes so
// stale cache identities can never collide with fresh ones.
const hashDomain = "strongdecomp/graph/v1\n"

// hashChunk is the size of the buffer Hash feeds SHA-256 from.
const hashChunk = 8 << 10

// Hash returns the stable content hash of g: the hex SHA-256 of the node
// count and the canonical (sorted, u<v) edge set. Because graph.Graph is
// always canonical, two graphs hash identically iff they have the same
// node count and edge set — independent of the byte format, edge order, or
// orientation they were parsed from. The serving layer uses this as the
// cache identity of a graph.
func Hash(g *graph.Graph) string {
	h := sha256.New()
	// The varints are encoded into one chunk and fed to SHA-256 a chunk
	// at a time; the bytes hashed are the same as one Write per varint.
	buf := make([]byte, 0, hashChunk)
	buf = append(buf, hashDomain...)
	buf = binary.AppendUvarint(buf, uint64(g.N()))
	buf = binary.AppendUvarint(buf, uint64(g.M()))
	// Stream the adjacency directly; Neighbors is sorted, so emitting the
	// u<v orientation walks the canonical edge list without materializing
	// it.
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				if len(buf) > hashChunk-2*binary.MaxVarintLen64 {
					h.Write(buf)
					buf = buf[:0]
				}
				buf = binary.AppendUvarint(buf, uint64(u))
				buf = binary.AppendUvarint(buf, uint64(v))
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
