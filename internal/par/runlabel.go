package par

import (
	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// runLabelInto is the strip engine, for both modes: each worker run-labels
// its strip with its own seq.BandLabeler — maximal foreground runs in
// Binary mode, equal-grey-level runs in Grey mode, united by a strip-local
// union-find over runs with unite-by-minimum and painted with span writes
// lifted to global labels. Phase 2 walks the boundary pixel rows of
// adjacent strips (AppendBoundaryEdges, the seam the streaming pipeline
// merges its bands with) and resolves the edges in the concurrent
// union-find; Phase 3 walks each strip's run table — one find and one
// span write per run — and Phase 4 clears the touched union-find entries.
//
// Exactness: a run's seed label is the global row-major index of its first
// pixel plus one, and the minimum-index pixel of any component fragment
// starts a run (its left neighbor is background — or, in grey mode, a
// different grey level — or would precede it in the same run), so
// unite-by-minimum roots every fragment at exactly the label the row-major
// BFS assigns. The result is therefore pixel-for-pixel identical to
// seq.LabelBFS, not merely equivalent up to renaming.
func (e *Engine) runLabelInto(im *image.Image, conn image.Connectivity, mode seq.Mode,
	out *image.Labels) int {
	n := im.N
	W := e.stripCount(n)

	if W == 1 {
		// Single strip: no borders to merge, and no parallelDo closure
		// to allocate — the whole call is allocation-free at steady state
		// (the phase marks are nil-safe no-ops with metrics disabled).
		t0 := e.obs.StartPhase()
		comps := e.labelers[0].Label(im.Pix, n, n, conn, mode, out.Lab)
		e.obs.EndPhase("strip_label", "", t0)
		e.obs.Add(obs.CtrStripComponents, int64(comps))
		e.obs.Add(runCounter(mode), int64(len(e.labelers[0].Runs())/2))
		return comps
	}

	// Phase 1 — each worker packs and run-labels the rows of its strip in
	// its own labeler: extraction, vertical unites and the paint pass all
	// happen strip-locally, with seeds lifted by the strip's first pixel
	// index into global labels.
	e.phase("strip_label", func() {
		e.parallelDo(W, func(w int) {
			e.checkFault("strip_label", w, 1)
			r0, r1 := stripBounds(w, W, n)
			e.comps[w] = e.labelers[w].LabelAt(im.Pix[r0*n:r1*n], r1-r0, n, uint32(r0*n),
				conn, mode, out.Lab[r0*n:r1*n])
		})
	})
	if e.interrupted() {
		return 0
	}

	e.phase("border_merge", func() {
		e.borderMerge(im, out, conn, mode, W)
	})
	if e.interrupted() {
		return 0
	}

	// Phase 3 — final update over runs: a run is uniformly labeled, so one
	// find on its painted label and one span rewrite (only when the root
	// moved) replace a per-pixel sweep. Background costs nothing — it has
	// no runs.
	e.phase("relabel", func() {
		e.parallelDo(W, func(w int) {
			e.checkFault("relabel", w, 1)
			r0, _ := stripBounds(w, W, n)
			runs := e.labelers[w].Runs()
			rowOff := e.labelers[w].RowOffsets()
			var finds, relab int64
			for i := 0; i+1 < len(rowOff); i++ {
				if i&63 == 0 && e.cancelable && e.stop.Load() {
					return
				}
				rowBase := (r0 + i) * n
				for k := rowOff[i]; k < rowOff[i+1]; k += 2 {
					s, end := runs[k], runs[k+1]
					l := out.Lab[rowBase+int(s)]
					finds++
					if r := e.uf.find(l); r != l {
						seq.Fill32(out.Lab[rowBase+int(s):rowBase+int(end)], r)
						relab += int64(end - s)
					}
				}
			}
			e.finds[w] = finds
			e.relab[w] = relab
		})
	})

	if e.interrupted() {
		return 0
	}
	comps := e.finish(W)
	if e.obs != nil {
		var runs int64
		for w := 0; w < W; w++ {
			runs += int64(len(e.labelers[w].Runs()) / 2)
		}
		e.obs.Add(runCounter(mode), runs)
	}
	return comps
}

// runCounter returns the obs counter that tallies extracted runs for the
// mode: binary foreground runs and grey equal-level runs are reported
// separately so a metrics reader can tell which extractor ran.
func runCounter(mode seq.Mode) obs.Counter {
	if mode == seq.Grey {
		return obs.CtrGreyRuns
	}
	return obs.CtrRuns
}
