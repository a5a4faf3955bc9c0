package seq

import (
	"sync/atomic"

	"parimg/internal/image"
)

// BandLabeler labels rectangular rows x cols band windows with the
// run-based engine — the unit of work of the out-of-core streaming pipeline
// (internal/stream), which decodes one horizontal band of a taller-than-
// resident image at a time. It owns the packed plane and RunLabeler scratch
// and reuses them across bands, so a steady-state band loop allocates
// nothing; like the strip labelers, the zero value is ready to use and an
// instance is not safe for concurrent use.
//
// Seed labels are band-local: the band-row-major index plus one, exactly
// what LabelStrip assigns with r0 = 0. The caller lifts them into the
// 64-bit global label space by adding the band's global base offset — the
// band-local seed of a pixel plus the global index of the band's first
// pixel is the pixel's global row-major index plus one, so the lifted
// labeling is the one a (hypothetical) 64-bit whole-image run labeler
// would produce.
type BandLabeler struct {
	rl    RunLabeler
	bp    image.Bitplane
	bytep image.Byteplane
}

// SetStop installs (or, with nil, removes) the cooperative cancellation
// flag the band labeler's row loops poll; see RunLabeler.Stop.
func (b *BandLabeler) SetStop(stop *atomic.Bool) { b.rl.Stop = stop }

// Resolve run-labels the rows x cols band in pix without painting it:
// runs are extracted and united, and the union-find is flattened so that
// Roots maps every run straight to its root run. It returns the number of
// components found within the band, or 0 when the Stop flag cut the scan
// short. Labels are band-local seeds: band-row-major index + 1, so
// rows*cols must stay well inside uint32 — the streaming pipeline's band
// budget guarantees it. Binary mode packs the band into the bit plane and
// takes the word-at-a-time run scan; grey mode packs the byte plane,
// falling back to full-width extraction over pix when any grey level
// exceeds a byte.
//
// A band root is the first run of its band component in row-major order
// (its seed is the component's minimum), so a consumer that walks runs in
// order meets every component at its root first.
func (b *BandLabeler) Resolve(pix []uint32, rows, cols int, conn image.Connectivity, mode Mode) int {
	comps, _ := b.resolve(pix, rows, cols, conn, mode)
	return comps
}

// resolve is Resolve, also reporting whether the scan ran to completion
// (false when the Stop flag cut it short and the run table is partial).
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
		// The grey strip scan reads pixels through an *image.Image only as
		// a flat row-major buffer with stride N; a band-shaped view is a
		// valid trusted-path argument even though it is not square.
		view := image.Image{N: cols, Pix: pix}
		comps, ok = b.rl.scanGreyStrip(bp, &view, 0, rows, conn)
	} else {
		b.bp.ResetRect(rows, cols)
		b.bp.SetRowsPix(pix, 0, rows)
		comps, ok = b.rl.scanStrip(&b.bp, 0, rows, conn)
	}
	if ok {
		b.rl.flatten()
	}
	return comps, ok
}

// Label is Resolve followed by a paint of the whole band into lab, the
// rows*cols band-local label plane (background gaps are cleared as part of
// the paint; lab need not be pre-zeroed). Returns the band's component
// count.
func (b *BandLabeler) Label(pix []uint32, rows, cols int, conn image.Connectivity,
	mode Mode, lab []uint32) int {
	comps, ok := b.resolve(pix, rows, cols, conn, mode)
	if ok {
		b.rl.paint(rows, cols, true, lab)
	}
	return comps
}

// PaintRow paints band row i of the last Resolve into dst (length cols):
// each run gets its root's band-local seed, background gets 0. It is how
// the streaming pipeline materializes only the two seam rows of a band.
func (b *BandLabeler) PaintRow(i int, dst []uint32) { b.rl.paintRow(i, dst, true) }

// ComponentSizes returns, in dst (grown as needed), the pixel count of
// every band component at its root run's index: dst[r] for each r with
// Roots()[r] == r. Entries at non-root indices are partial sums and carry
// no meaning. Sizes fit uint32 because the band area does.
func (b *BandLabeler) ComponentSizes(dst []uint32) []uint32 {
	roots, runs := b.rl.parent, b.rl.runs
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

// Runs exposes the band's flat (start, end) run table, valid until the next
// Resolve or Label call.
func (b *BandLabeler) Runs() []int32 { return b.rl.Runs() }

// RowOffsets exposes the per-row offsets into Runs(); see
// RunLabeler.RowOffsets.
func (b *BandLabeler) RowOffsets() []int32 { return b.rl.RowOffsets() }

// Roots exposes, per run, the index of its root run after Resolve or
// Label: Roots()[k] <= k, and runs k with Roots()[k] == k are the band's
// components. Valid until the next Resolve or Label call.
func (b *BandLabeler) Roots() []int32 { return b.rl.parent }

// Seeds exposes each run's band-local seed label (band-row-major index of
// its first pixel + 1); a component's label is Seeds()[root]. Valid until
// the next Resolve or Label call.
func (b *BandLabeler) Seeds() []uint32 { return b.rl.seed }
