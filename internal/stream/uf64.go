// Package stream labels the connected components of images too large to
// hold in memory: an out-of-core pipeline that reads horizontal band
// windows of an on-disk PGM through image.PGMHeader, labels each band with
// the run-based sequential engine, and merges adjacent bands across their
// shared boundary row through the same slab-merge seam the host-parallel
// engine uses for its strip boundaries. Labels live in a 64-bit global
// space — the pixel's global row-major index plus one — so the total pixel
// count may exceed 2^32 and the resident MaxSide ceiling does not apply;
// memory stays O(band) plus the sparse merge state.
package stream

import (
	"sync/atomic"

	"parimg/internal/image"
	"parimg/internal/par"
	"parimg/internal/seq"
)

// UnionFind64 is a sparse union-find over the 64-bit global label space:
// parents live in a map, and a label with no entry is its own root, so
// only labels that actually reach a band boundary cost memory — the
// resident engine's flat parent array would need one word per pixel,
// which is exactly what an out-of-core run cannot afford. Linking is
// unite-by-minimum with path halving, the same discipline as the
// resident concurrent structure, so the root of every merged set is the
// set's minimum global seed label — the label the (hypothetical) resident
// sequential labeler would paint. Not safe for concurrent use; the band
// merge is sequential.
type UnionFind64 struct {
	parent map[uint64]uint64
}

// NewUnionFind64 returns an empty structure (every label its own root).
func NewUnionFind64() *UnionFind64 {
	return &UnionFind64{parent: make(map[uint64]uint64)}
}

// Find returns the root of x's set, halving the path as it walks.
func (u *UnionFind64) Find(x uint64) uint64 {
	for {
		p, ok := u.parent[x]
		if !ok {
			return x
		}
		gp, ok := u.parent[p]
		if !ok {
			return p
		}
		// Path halving: gp < p < x by unite-by-minimum, so the rewrite
		// only ever lowers the entry.
		u.parent[x] = gp
		x = gp
	}
}

// Unite merges the sets of a and b, linking the larger root under the
// smaller, and returns true when the call performed the link (false if
// they were already one set). It implements par.Uniter[uint64], so
// par.ResolveBoundary drives it directly.
func (u *UnionFind64) Unite(a, b uint64) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	return true
}

// IsRoot reports whether x is the root of its set.
func (u *UnionFind64) IsRoot(x uint64) bool {
	_, linked := u.parent[x]
	return !linked
}

// Len returns the number of non-root labels — the memory the merge state
// actually holds, bounded by the number of cross-band links.
func (u *UnionFind64) Len() int { return len(u.parent) }

// MergeAdjacent resolves the boundary between two vertically adjacent
// label slabs: topPix/topLab are the bottom pixel and lifted-label rows of
// the upper slab, botPix/botLab the top rows of the lower slab, all of one
// width. Edges are extracted into edgeBuf (reused across calls) and fed to
// the union-find through the shared par seam — the identical extraction
// and resolution the resident engine runs on its strip boundaries, so the
// two paths produce the same forest. Returns the grown edge buffer, the
// raw adjacency count, and the number of links (unions of previously
// distinct sets). A non-nil stop is polled cooperatively.
func MergeAdjacent(uf *UnionFind64, topPix, botPix []uint32,
	topLab, botLab []uint64, conn image.Connectivity, mode seq.Mode,
	stop *atomic.Bool, edgeBuf []uint64) (edges []uint64, pairs int64, links int) {
	edges, pairs = par.AppendBoundaryEdges(edgeBuf[:0], topPix, botPix,
		topLab, botLab, conn, mode, stop)
	links = par.ResolveBoundary(edges, uf, stop)
	return edges, pairs, links
}
