package seq

import (
	"sync/atomic"

	"parimg/internal/image"
)

// BandLabeler run-labels rectangular rows x cols slabs of a row-major
// pixel buffer — the unit of work of both labeling drivers: the strips of
// the host-parallel engine (internal/par), one labeler per worker, and the
// bands of the out-of-core streaming pipeline (internal/stream), which
// decodes one horizontal band of a taller-than-resident image at a time.
// It owns the packed plane, the flat run table, per-run grey values and
// seed labels, and the run union-find, and reuses them across slabs, so a
// steady-state slab loop allocates nothing. The run table stays alive
// after Resolve/Label so a caller can revisit the slab's runs (the
// parallel engine's final relabel pass does). The zero value is ready to
// use; an instance is not safe for concurrent use.
//
// Seed labels are slab-local: the slab-row-major index plus one. A caller
// lifts them into its global label space by adding the slab's base offset
// — the global index of the slab's first pixel — so the slab-local seed
// of a pixel plus the base is the pixel's global row-major index plus one,
// and slabs labeled independently carry globally unique labels. The
// parallel engine lifts at paint time (LabelAt); the streaming pipeline
// lifts into 64 bits itself, since a streamed image may exceed 2^32
// pixels.
type BandLabeler struct {
	runs   []int32  // flat (start, end) column pairs, rows concatenated
	rowOff []int32  // rowOff[i] = offset into runs of row i's pairs; len rows+1
	vals   []uint32 // per-run grey level (grey mode only; empty for binary)
	seed   []uint32 // per-run slab-local seed label
	parent []int32  // run union-find; flat (every run at its root) after Resolve
	stop   *atomic.Bool
	bp     image.Bitplane
	bytep  image.Byteplane
}

// SetStop installs (or, with nil, removes) a cooperative cancellation flag
// polled once per row by the scan: once set, Resolve and Label return 0
// early and paint nothing. nil (the default) costs nothing.
func (b *BandLabeler) SetStop(stop *atomic.Bool) { b.stop = stop }

// Resolve run-labels the rows x cols slab in pix without painting it:
// runs are extracted and united, and the union-find is flattened so that
// Roots maps every run straight to its root run. It returns the number of
// components found within the slab, or 0 when the stop flag cut the scan
// short. Labels are slab-local seeds, so rows*cols must stay well inside
// uint32 — the resident engine's MaxSide bound and the streaming
// pipeline's band budget both guarantee it. Binary mode packs the slab
// into the bit plane and takes the word-at-a-time run scan; grey mode
// packs the byte plane, falling back to full-width extraction over pix
// when any grey level exceeds a byte.
//
// A slab root is the first run of its slab component in row-major order
// (its seed is the component's minimum), so a consumer that walks runs in
// order meets every component at its root first.
func (b *BandLabeler) Resolve(pix []uint32, rows, cols int, conn image.Connectivity, mode Mode) int {
	comps, _ := b.resolve(pix, rows, cols, conn, mode)
	return comps
}

// resolve is Resolve, also reporting whether the scan ran to completion
// (false when the stop flag cut it short and the run table is partial).
func (b *BandLabeler) resolve(pix []uint32, rows, cols int, conn image.Connectivity,
	mode Mode) (int, bool) {
	var comps int
	var ok bool
	if mode == Grey {
		b.bytep.ResetRect(rows, cols)
		bp := &b.bytep
		if b.bytep.SetRowsPix(pix, 0, rows) {
			bp = nil
		}
		comps, ok = b.scanGreyStrip(bp, pix, rows, cols, conn)
	} else {
		b.bp.ResetRect(rows, cols)
		b.bp.SetRowsPix(pix, 0, rows)
		comps, ok = b.scanStrip(rows, cols, conn)
	}
	if ok {
		b.flatten()
	}
	return comps, ok
}

// Label is LabelAt with base 0: the slab's labels are its slab-local
// seeds.
func (b *BandLabeler) Label(pix []uint32, rows, cols int, conn image.Connectivity,
	mode Mode, lab []uint32) int {
	return b.LabelAt(pix, rows, cols, 0, conn, mode, lab)
}

// LabelAt is Resolve followed by a paint of the whole slab into lab, the
// rows*cols label plane: every run gets its root's seed plus base, and
// background gaps are cleared in the same sweep (lab need not be
// pre-zeroed). Returns the slab's component count. A scan cut short by the
// stop flag paints nothing and returns 0.
func (b *BandLabeler) LabelAt(pix []uint32, rows, cols int, base uint32,
	conn image.Connectivity, mode Mode, lab []uint32) int {
	comps, ok := b.resolve(pix, rows, cols, conn, mode)
	if ok {
		for i := 0; i < rows; i++ {
			b.paintRow(i, base, lab[i*cols:(i+1)*cols])
		}
	}
	return comps
}

// PaintRow paints slab row i of the last Resolve into dst (length cols):
// each run gets its root's slab-local seed, background gets 0. It is how
// the streaming pipeline materializes only the two seam rows of a band.
func (b *BandLabeler) PaintRow(i int, dst []uint32) { b.paintRow(i, 0, dst) }

// paintRow paints slab row i into row with seeds lifted by base: a span
// write per run instead of a store per pixel, background zeroed between
// runs. The union-find must be flat (resolve completed).
func (b *BandLabeler) paintRow(i int, base uint32, row []uint32) {
	lo, hi := b.rowOff[i]/2, b.rowOff[i+1]/2
	col := int32(0)
	for k := lo; k < hi; k++ {
		s, e := b.runs[2*k], b.runs[2*k+1]
		zero32(row[col:s])
		Fill32(row[s:e], b.seed[b.parent[k]]+base)
		col = e
	}
	zero32(row[col:])
}

// ComponentSizes returns, in dst (grown as needed), the pixel count of
// every slab component at its root run's index: dst[r] for each r with
// Roots()[r] == r. Entries at non-root indices are partial sums and carry
// no meaning. Sizes fit uint32 because the slab area does.
func (b *BandLabeler) ComponentSizes(dst []uint32) []uint32 {
	roots, runs := b.parent, b.runs
	if cap(dst) < len(roots) {
		dst = make([]uint32, len(roots), cap(roots))
	}
	dst = dst[:len(roots)]
	for k, r := range roots {
		n := uint32(runs[2*k+1] - runs[2*k])
		if int(r) == k {
			dst[k] = n
		} else {
			dst[r] += n
		}
	}
	return dst
}

// Runs exposes the slab's flat (start, end) column pairs, rows
// concatenated, valid until the next Resolve or Label call.
func (b *BandLabeler) Runs() []int32 { return b.runs }

// RowOffsets exposes, for each slab row, the offset of its first pair in
// Runs(); the extra final entry is len(Runs()).
func (b *BandLabeler) RowOffsets() []int32 { return b.rowOff }

// Roots exposes, per run, the index of its root run after Resolve or
// Label: Roots()[k] <= k, and runs k with Roots()[k] == k are the slab's
// components. Valid until the next Resolve or Label call.
func (b *BandLabeler) Roots() []int32 { return b.parent }

// Seeds exposes each run's slab-local seed label (slab-row-major index of
// its first pixel + 1); a component's label is Seeds()[root]. Valid until
// the next Resolve or Label call.
func (b *BandLabeler) Seeds() []uint32 { return b.seed }
