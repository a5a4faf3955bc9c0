package par

import (
	"sync/atomic"

	"parimg/internal/image"
	"parimg/internal/seq"
)

// This file is the slab-merge seam: the boundary extraction and resolution
// at the heart of Phase 2, factored out so it works over any pair of
// adjacent label slabs — the in-memory strips of the resident engine
// (uint32 labels) and the band windows of the out-of-core streaming
// pipeline (uint64 global labels, since a streamed image's pixel count may
// exceed 2^32). The engine's resolution pass delegates to ResolveBoundary,
// so the two paths cannot drift; its extraction intersects run lists
// instead (extractRunEdges), since its strips keep their run tables.

// BoundaryLabel is the label word of a slab: the resident engine's uint32
// strip labels or the streaming pipeline's uint64 global labels.
type BoundaryLabel interface{ ~uint32 | ~uint64 }

// Uniter merges label sets; Unite returns true when the call performed the
// link, i.e. the two labels were in distinct sets before. The resident
// engine's concurrent union-find and the streaming pipeline's sparse
// 64-bit union-find both satisfy it.
type Uniter[L BoundaryLabel] interface {
	Unite(a, b L) bool
}

// AppendBoundaryEdges appends to dst the union edges across the boundary
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
func AppendBoundaryEdges[L BoundaryLabel](dst []L, topPix, botPix []uint32,
	topLab, botLab []L, conn image.Connectivity, mode seq.Mode,
	stop *atomic.Bool) ([]L, int64) {
	n := len(topPix)
	var pairs int64
	var lastA, lastB L
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
			jlo, jhi = j-1, j+1
			if jlo < 0 {
				jlo = 0
			}
			if jhi >= n {
				jhi = n - 1
			}
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

// ResolveBoundary feeds a flat (top, bottom) edge list to the union-find,
// one Unite per edge, returning the number of links — unites that joined
// two previously distinct sets, the quantity "strip components minus
// links = total components" charges. A non-nil stop is polled every 8192
// edges. This is the resident engine's resolution loop, shared with the
// streaming pipeline's band merge.
func ResolveBoundary[L BoundaryLabel](edges []L, uf Uniter[L], stop *atomic.Bool) int {
	links := 0
	for k := 0; k+1 < len(edges); k += 2 {
		if k&8191 == 0 && stop != nil && stop.Load() {
			break
		}
		if uf.Unite(edges[k], edges[k+1]) {
			links++
		}
	}
	return links
}
