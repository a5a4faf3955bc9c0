// Package stream labels the connected components of images too large to
// hold in memory: an out-of-core pipeline that reads horizontal band
// windows of an on-disk PGM through image.PGMHeader, labels each band with
// the run-based sequential engine, and merges adjacent bands across their
// shared boundary row with MergeAdjacent, a per-pixel seam into a sparse
// 64-bit union-find. Labels live in a 64-bit global
// space — the pixel's global row-major index plus one — so the total pixel
// count may exceed 2^32 and the resident MaxSide ceiling does not apply;
// memory stays O(band) plus the sparse merge state, which holds only the
// band fragments on seam rows: O(bands × width), not O(components).
package stream

import (
	"sync/atomic"

	"parimg/internal/image"
	"parimg/internal/seq"
)

// UnionFind64 is a sparse union-find over the 64-bit global label space:
// parents live in a map, and a label with no entry is its own root, so
// only labels that were linked across a band boundary cost memory, where
// a flat parent array would need one word per pixel, which is exactly
// what an out-of-core run cannot afford. Linking is unite-by-minimum with
// path halving, the same discipline as the labeler's run union-find, so
// the root of every merged set is the set's minimum global seed label —
// the label the resident labeler paints. Not safe for concurrent use; the
// band merge is sequential.
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
// they were already one set).
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
// actually holds. It equals the number of links: each link adds one entry
// for the root it links, and path halving only rewrites entries.
func (u *UnionFind64) Len() int { return len(u.parent) }

// MergeAdjacent resolves the boundary between two vertically adjacent
// label slabs: topPix/topLab are the bottom pixel and lifted-label rows of
// the upper slab, botPix/botLab the top rows of the lower slab, all of one
// width. Edges are extracted into edgeBuf (reused across calls) by
// appendBoundaryEdges and fed to the union-find one Unite per edge.
// Returns the grown edge buffer, the raw adjacency count, and the number
// of links (unions of previously distinct sets, the quantity "band
// components minus links = total components" charges). A non-nil stop is
// polled cooperatively, every 1024 columns and every 8192 edges.
func MergeAdjacent(uf *UnionFind64, topPix, botPix []uint32,
	topLab, botLab []uint64, conn image.Connectivity, mode seq.Mode,
	stop *atomic.Bool, edgeBuf []uint64) (edges []uint64, pairs int64, links int) {
	edges, pairs = appendBoundaryEdges(edgeBuf[:0], topPix, botPix,
		topLab, botLab, conn, mode, stop)
	for k := 0; k+1 < len(edges); k += 2 {
		if k&8191 == 0 && stop != nil && stop.Load() {
			break
		}
		if uf.Unite(edges[k], edges[k+1]) {
			links++
		}
	}
	return edges, pairs, links
}

// appendBoundaryEdges appends to dst the union edges across the boundary
// between two vertically adjacent slabs, given the bottom pixel row and
// label row of the upper slab (topPix, topLab) and the top rows of the
// lower slab (botPix, botLab), all of one width. One edge (two appended
// labels: top then bottom) is emitted per adjacent like-pixel pair,
// deduplicating consecutive repeats — adjacent boundary pixels of one
// component fragment carry the same label, so a wide overlap emits one
// edge instead of one per pixel (plus up to three per label change under
// Conn8), without any lookup structure. Returns the grown slice and the
// raw adjacency count (pairs before dedup, the obs boundary-pairs
// counter's unit). A non-nil stop is polled every 1024 columns; on
// cancellation the partial slice is returned.
func appendBoundaryEdges(dst []uint64, topPix, botPix []uint32,
	topLab, botLab []uint64, conn image.Connectivity, mode seq.Mode,
	stop *atomic.Bool) ([]uint64, int64) {
	n := len(topPix)
	var pairs int64
	var lastA, lastB uint64
	for j := 0; j < n; j++ {
		if j&1023 == 0 && stop != nil && stop.Load() {
			break
		}
		a := topPix[j]
		if a == 0 {
			continue
		}
		jlo, jhi := j, j
		if conn == image.Conn8 {
			jlo, jhi = max(j-1, 0), min(j+1, n-1)
		}
		for jj := jlo; jj <= jhi; jj++ {
			b := botPix[jj]
			if b == 0 || !mode.Connected(a, b) {
				continue
			}
			pairs++
			la, lb := topLab[j], botLab[jj]
			if la == lastA && lb == lastB {
				continue
			}
			lastA, lastB = la, lb
			dst = append(dst, la, lb)
		}
	}
	return dst, pairs
}
