package seq

import (
	"sync"
	"sync/atomic"

	"parimg/internal/image"
)

// BandLabeler run-labels rectangular rows x cols slabs of a row-major
// pixel buffer — the unit of work of both labeling drivers: the whole
// image of the host-parallel engine (internal/par), which splits it into
// one row-range sub-slab per worker (SetWorkers), and the bands of the
// out-of-core streaming pipeline (internal/stream), which decodes one
// horizontal band of a taller-than-resident image at a time. It owns the
// packed plane, the flat run table, per-run grey values and seed labels,
// and the run union-find, and reuses them across slabs, so a steady-state
// slab loop on one worker allocates nothing (more workers cost a few
// allocations per slab for their goroutines). The run table stays alive
// after Resolve/Label so a caller can revisit the slab's runs (the
// parallel engine paints from it row range by row range). The zero value
// is ready to use; an instance is not safe for concurrent use.
//
// Seed labels are slab-local: the slab-row-major index plus one. For the
// parallel engine the slab is the image, so they are already global; the
// streaming pipeline lifts them into its 64-bit global space by adding
// the band's base offset, since a streamed image may exceed 2^32 pixels.
type BandLabeler struct {
	runs   []int32  // flat (start, end) column pairs, rows concatenated
	rowOff []int32  // rowOff[i] = offset into runs of row i's pairs; len rows+1
	vals   []uint32 // per-run grey level (grey mode only; empty for binary)
	seed   []uint32 // per-run slab-local seed label
	parent []int32  // run union-find; flat (every run at its root) after Resolve
	stop   *atomic.Bool
	hook   func(sub int)
	bp     image.Bitplane
	bytep  image.Byteplane

	workers int         // sub-slabs per Resolve (SetWorkers); <= 1 means one
	slabs   []subSlab   // the current Resolve's row-range sub-slabs
	abort   atomic.Bool // raised by a panicking sub-slab to stop its siblings
	fg      int         // foreground pixels of the last Resolve

	// The current Resolve's arguments, for its sub-slab workers; pix is
	// dropped when Resolve returns.
	pix  []uint32
	cols int
	conn image.Connectivity
	grey bool
}

// subSlab is one row range [r0, r1) of a Resolve and what its worker
// reports back.
type subSlab struct {
	index    int
	r0, r1   int
	wide     bool // grey levels above a byte: runs come from pix, not the byteplane
	cut      bool // the stop flag cut this sub-slab's rows short
	unites   int  // merging unites within the sub-slab
	fg       int  // foreground pixels in the sub-slab's runs
	panicked any  // a recovered worker panic, re-raised by the caller
}

// SetStop installs (or, with nil, removes) a cooperative cancellation flag
// polled once per row by the scan: once set, Resolve and Label return 0
// early and paint nothing. nil (the default) costs nothing.
func (b *BandLabeler) SetStop(stop *atomic.Bool) { b.stop = stop }

// SetHook installs (or, with nil, removes) a callback that Resolve runs
// once per sub-slab, on that sub-slab's goroutine, before it packs its
// first row; sub is the sub-slab's index, 0 for the topmost. A panic in
// the hook is handled like any sub-slab panic: the siblings stop and the
// panic is re-raised on the calling goroutine. The parallel engine plants
// its injected faults here. nil (the default) costs nothing.
func (b *BandLabeler) SetHook(hook func(sub int)) { b.hook = hook }

// SetWorkers sets how many row-range sub-slabs Resolve splits a slab into
// and labels concurrently: w goroutines (the calling one among them), at
// most one per row. w <= 1 (the default) labels on the calling goroutine
// alone. The result of Resolve — run table, roots, seeds, count — does not
// depend on w.
func (b *BandLabeler) SetWorkers(w int) { b.workers = w }

// Resolve run-labels the rows x cols slab in pix without painting it:
// runs are extracted and united, and the union-find is flattened so that
// Roots maps every run straight to its root run. It returns the number of
// components found within the slab, or 0 when the stop flag cut the scan
// short. Labels are slab-local seeds, so rows*cols must stay well inside
// uint32 — the resident engine's MaxSide bound and the streaming
// pipeline's band budget both guarantee it. Binary mode packs the slab
// into the bit plane and takes the word-at-a-time run scan; grey mode
// packs the byte plane, falling back to full-width extraction over pix
// in any sub-slab where a grey level exceeds a byte.
//
// A slab root is the first run of its slab component in row-major order
// (its seed is the component's minimum), so a consumer that walks runs in
// order meets every component at its root first.
//
// A panic in a sub-slab worker stops its siblings and is re-raised on the
// calling goroutine once they have all returned.
func (b *BandLabeler) Resolve(pix []uint32, rows, cols int, conn image.Connectivity, mode Mode) int {
	comps, _ := b.resolve(pix, rows, cols, conn, mode)
	return comps
}

// resolve is Resolve, also reporting whether the scan ran to completion
// (false when the stop flag cut it short; the run table is then empty).
//
// It runs in three steps over the row-range sub-slabs. (1) Each sub-slab
// packs its rows and counts each row's runs into rowOff, and a prefix sum
// turns the counts into offsets, which size the run table exactly. (2)
// Each sub-slab extracts its rows' runs into its own part of the table,
// writes their seeds and singleton parents, and unites its rows. (3) The
// seam row pairs between sub-slabs are united serially, and the forest is
// flattened. Unite-by-minimum leaves every root at its component's minimum
// run whatever order the unites ran in, so the flat forest, and everything
// derived from it, is the same for any number of sub-slabs.
func (b *BandLabeler) resolve(pix []uint32, rows, cols int, conn image.Connectivity,
	mode Mode) (int, bool) {
	b.pix, b.cols, b.conn, b.grey = pix, cols, conn, mode == Grey
	defer func() { b.pix = nil }()
	if b.grey {
		b.bytep.ResetRect(rows, cols)
	} else {
		b.bp.ResetRect(rows, cols)
	}
	b.fg = 0
	b.split(rows)
	b.rowOff = resize(b.rowOff, rows+1)
	b.rowOff[0] = 0

	b.each((*BandLabeler).count)
	if b.wasCut() {
		return 0, false
	}
	for i := 0; i < rows; i++ {
		b.rowOff[i+1] += b.rowOff[i]
	}
	nruns := int(b.rowOff[rows]) / 2
	b.runs = resize(b.runs, 2*nruns)
	b.seed = resize(b.seed, nruns)
	b.parent = resize(b.parent, nruns)
	b.vals = b.vals[:0]
	if b.grey {
		b.vals = resize(b.vals, nruns)
	}

	b.each((*BandLabeler).fill)
	if b.wasCut() {
		return 0, false
	}
	unites, fg := b.slabs[0].unites, b.slabs[0].fg
	for _, sl := range b.slabs[1:] {
		unites += sl.unites + b.uniteAt(sl.r0)
		fg += sl.fg
	}
	b.fg = fg
	b.flatten()
	return nruns - unites, true
}

// split cuts a rows-row slab into min(workers, rows) row ranges of nearly
// equal height (one range, possibly empty, when workers <= 1).
func (b *BandLabeler) split(rows int) {
	n := max(1, min(b.workers, rows))
	b.slabs = resize(b.slabs, n)
	for s := range b.slabs {
		b.slabs[s] = subSlab{index: s, r0: s * rows / n, r1: (s + 1) * rows / n}
	}
	b.abort.Store(false)
}

// each runs step over every sub-slab, sub-slabs 1.. on goroutines of
// their own and sub-slab 0 on the caller's, and returns once all are done.
// A panicking sub-slab raises the abort flag, which its siblings poll with
// the stop flag, and the first panic is re-raised here after the join.
func (b *BandLabeler) each(step func(*BandLabeler, *subSlab)) {
	if len(b.slabs) == 1 {
		step(b, &b.slabs[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(b.slabs) - 1)
	for s := 1; s < len(b.slabs); s++ {
		go func(sl *subSlab) {
			defer wg.Done()
			b.guard(step, sl)
		}(&b.slabs[s])
	}
	b.guard(step, &b.slabs[0])
	wg.Wait()
	for _, sl := range b.slabs {
		if sl.panicked != nil {
			panic(sl.panicked)
		}
	}
}

// guard runs step on one sub-slab, recovering a panic into it.
func (b *BandLabeler) guard(step func(*BandLabeler, *subSlab), sl *subSlab) {
	defer func() {
		if p := recover(); p != nil {
			sl.panicked = p
			b.abort.Store(true)
		}
	}()
	step(b, sl)
}

// wasCut reports whether the stop flag cut any sub-slab short, emptying
// the run table if so: a partial table must not be painted.
func (b *BandLabeler) wasCut() bool {
	for _, sl := range b.slabs {
		if sl.cut {
			b.runs, b.rowOff, b.vals, b.seed, b.parent =
				b.runs[:0], b.rowOff[:0], b.vals[:0], b.seed[:0], b.parent[:0]
			return true
		}
	}
	return false
}

// stopped reports whether the cancellation or the abort flag is raised.
func (b *BandLabeler) stopped() bool {
	return b.abort.Load() || b.stop != nil && b.stop.Load()
}

// count is step 1 for one sub-slab: run the hook, then pack each row
// and store twice its run count (its length in runs) at rowOff[i+1].
func (b *BandLabeler) count(sl *subSlab) {
	if b.hook != nil {
		b.hook(sl.index)
	}
	for i := sl.r0; i < sl.r1; i++ {
		if b.stopped() {
			sl.cut = true
			return
		}
		var n int
		if !b.grey {
			b.bp.SetRowsPix(b.pix, i, i+1)
			n = countRuns(b.bp.Row(i))
		} else if b.bytep.SetRowsPix(b.pix, i, i+1) {
			sl.wide = true
			n = countGreyRunsPix(b.pix[i*b.cols : (i+1)*b.cols])
		} else {
			n = countGreyRuns(b.bytep.Row(i))
		}
		b.rowOff[i+1] = int32(2 * n)
	}
}

// fill is step 2 for one sub-slab: extract each row's runs into its exact
// slot of the run table, seed them (slab-local seed i*cols + start + 1) as
// singletons, sum their lengths into the sub-slab's foreground, and unite
// them with the row above when that row is in the sub-slab too. A wide
// sub-slab extracts every row from pix; its rows the byteplane holds intact
// yield the same runs either way.
func (b *BandLabeler) fill(sl *subSlab) {
	unites, fg := 0, 0
	for i := sl.r0; i < sl.r1; i++ {
		if b.stopped() {
			sl.cut = true
			return
		}
		lo, hi := int(b.rowOff[i]), int(b.rowOff[i+1])
		runs := b.runs[lo:lo:hi]
		switch {
		case !b.grey:
			runs = AppendRuns(b.bp.Row(i), runs)
		case sl.wide:
			runs, _ = AppendGreyRunsPix(b.pix[i*b.cols:(i+1)*b.cols], runs, b.vals[lo/2:lo/2:hi/2])
		default:
			runs, _ = AppendGreyRuns(b.bytep.Row(i), runs, b.vals[lo/2:lo/2:hi/2])
		}
		if len(runs) != hi-lo {
			panic("seq: run extraction disagrees with the run count")
		}
		base := uint32(i*b.cols) + 1
		for k := lo / 2; k < hi/2; k++ {
			b.seed[k] = base + uint32(b.runs[2*k])
			b.parent[k] = int32(k)
			fg += int(b.runs[2*k+1] - b.runs[2*k])
		}
		if i > sl.r0 {
			unites += b.uniteAt(i)
		}
	}
	sl.unites, sl.fg = unites, fg
}

// uniteAt unites the runs of row i with the adjacent (and, in grey mode,
// like-valued) runs of row i-1, returning the merging unites.
func (b *BandLabeler) uniteAt(i int) int {
	prevLo, curLo, curHi := int(b.rowOff[i-1])/2, int(b.rowOff[i])/2, int(b.rowOff[i+1])/2
	if b.grey {
		return b.uniteRowsGrey(prevLo, curLo, curHi, b.conn)
	}
	return b.uniteRows(prevLo, curLo, curHi, b.conn)
}

// resize returns s with length n, reallocating with an eighth of slack
// when its capacity is short, so slabs that grow a little at a time do not
// reallocate every time.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/8)
	}
	return s[:n]
}

// Label is Resolve followed by a paint of the whole slab into lab, the
// rows*cols label plane: every run gets its root's slab-local seed, and
// background gaps are cleared in the same sweep (lab need not be
// pre-zeroed). Returns the slab's component count. A scan cut short by the
// stop flag paints nothing and returns 0.
func (b *BandLabeler) Label(pix []uint32, rows, cols int, conn image.Connectivity,
	mode Mode, lab []uint32) int {
	comps, ok := b.resolve(pix, rows, cols, conn, mode)
	if ok {
		for i := 0; i < rows; i++ {
			b.PaintRow(i, lab[i*cols:(i+1)*cols])
		}
	}
	return comps
}

// PaintRow paints slab row i of the last Resolve into dst (length cols):
// each run gets its root's slab-local seed, background gets 0 — a span
// write per run instead of a store per pixel. The union-find must be flat
// (Resolve completed). Rows are independent, so disjoint rows may be
// painted concurrently: the parallel engine paints its row ranges on all
// workers, and the streaming pipeline materializes only the two seam rows
// of a band.
func (b *BandLabeler) PaintRow(i int, dst []uint32) {
	lo, hi := b.rowOff[i]/2, b.rowOff[i+1]/2
	col := int32(0)
	for k := lo; k < hi; k++ {
		s, e := b.runs[2*k], b.runs[2*k+1]
		zero32(dst[col:s])
		Fill32(dst[s:e], b.seed[b.parent[k]])
		col = e
	}
	zero32(dst[col:])
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

// Foreground returns the number of foreground pixels (the summed run
// lengths) of the last Resolve or Label, 0 when the stop flag cut it
// short. It is summed per sub-slab during extraction, so it costs no pass
// of its own.
func (b *BandLabeler) Foreground() int { return b.fg }

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
