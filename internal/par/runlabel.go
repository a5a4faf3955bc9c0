package par

import (
	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// runLabelInto is the resident labeling driver, for every worker count and
// both modes. Phase strip_label hands the whole image to the engine's
// seq.BandLabeler, which splits it into one row-range sub-slab per worker,
// extracts and unites each sub-slab's runs — maximal foreground runs in
// Binary mode, equal-grey-level runs in Grey mode — on a worker of its
// own, unites the seams between sub-slabs run against run and flattens the
// run forest. Phase relabel paints the same row ranges in parallel, one
// span write per run with its root's seed.
//
// Exactness: a run's seed label is the global row-major index of its first
// pixel plus one (the slab is the image, so the labeler's slab-local seeds
// are already global), and the minimum-index pixel of any component starts
// a run (its left neighbor is background — or, in grey mode, a different
// grey level — or would precede it in the same run), so unite-by-minimum
// roots every component at exactly the label the row-major BFS assigns.
// The result is therefore pixel-for-pixel identical to seq.LabelBFS, not
// merely equivalent up to renaming.
func (e *Engine) runLabelInto(im *image.Image, conn image.Connectivity, mode seq.Mode,
	out *image.Labels) int {
	n := im.N
	var comps int
	e.phase("strip_label", func() {
		e.guard(0, func(int) { comps = e.bl.Resolve(im.Pix, n, n, conn, mode) })
	})
	if e.interrupted() {
		return 0
	}
	e.out = out
	e.phase("relabel", func() { e.parallelDo(e.stripCount(n), e.paint) })
	e.out = nil
	if e.interrupted() {
		return 0
	}
	e.obs.Add(obs.CtrStripComponents, int64(comps))
	e.obs.Add(runCounter(mode), int64(len(e.bl.Runs())/2))
	return comps
}

// paintRows is relabel worker w: it paints the rows of row range w — the
// labeler's sub-slab w — of the labeling in flight, e.out, from the flat
// run forest. Rows are independent, so the workers share nothing.
func (e *Engine) paintRows(w int) {
	e.checkFault("relabel", w, 1)
	n, lab := e.out.N, e.out.Lab
	r0, r1 := stripBounds(w, e.stripCount(n), n)
	for i := r0; i < r1; i++ {
		if (i-r0)&63 == 0 && e.cancelable && e.stop.Load() {
			return
		}
		e.bl.PaintRow(i, lab[i*n:(i+1)*n])
	}
}

// stripFault is the strip_label fault checkpoint, which the labeler runs
// on each sub-slab's goroutine with rank = sub-slab index.
func (e *Engine) stripFault(sub int) { e.checkFault("strip_label", sub, 1) }

// runCounter returns the obs counter that tallies extracted runs for the
// mode: binary foreground runs and grey equal-level runs are reported
// separately so a metrics reader can tell which extractor ran.
func runCounter(mode seq.Mode) obs.Counter {
	if mode == seq.Grey {
		return obs.CtrGreyRuns
	}
	return obs.CtrRuns
}
