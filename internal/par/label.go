package par

import (
	"context"
	"fmt"

	"parimg/internal/errs"
	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// checkLabelInput validates the (image, connectivity, mode) triple shared by
// every labeling entry point and returns the connectivity to run, with 0
// resolved to the Conn8 default. Image.Check enforces the structural
// invariants including the n <= MaxSide label-space bound: seed labels are
// the global row-major index + 1 in uint32, so a larger side would silently
// wrap (65536*65536 == 2^32) and collide labels across strips.
func checkLabelInput(op string, im *image.Image, conn image.Connectivity, mode seq.Mode) (image.Connectivity, error) {
	if err := im.Check(); err != nil {
		return 0, fmt.Errorf("par: %w", err)
	}
	if conn == 0 {
		conn = image.Conn8
	}
	if !conn.Valid() {
		return 0, errs.Bad(op, "invalid connectivity %d (want 4 or 8)", int(conn))
	}
	if mode != seq.Binary && mode != seq.Grey {
		return 0, errs.Bad(op, "invalid mode %d", int(mode))
	}
	return conn, nil
}

// LabelIntoContext labels im's connected components into out with the
// engine's workers and returns the number of components; the labeling is
// pixel-for-pixel identical to seq.LabelBFS. out must have side im.N; its
// prior contents do not matter. A malformed image (nil, side outside
// (0, MaxSide], wrong buffer length), a malformed or mismatched out, an
// unknown connectivity or an unknown mode returns an error from the errs
// taxonomy instead of panicking or silently wrapping 32-bit seed labels.
// Connectivity 0 selects Conn8.
//
// When ctx is canceled or its deadline expires, the workers stop at their
// next checkpoint (between phases, and every few thousand rows, runs or
// edges inside the phase loops) and the call returns an error wrapping
// errs.ErrCanceled or errs.ErrDeadline. A nil ctx disables cancellation at
// no cost. On a run error the contents of out are undefined (partially
// labeled) — callers must discard them.
func (e *Engine) LabelIntoContext(ctx context.Context, im *image.Image,
	conn image.Connectivity, mode seq.Mode, out *image.Labels) (int, error) {
	conn, err := checkLabelInput("par.LabelInto", im, conn, mode)
	if err != nil {
		return 0, err
	}
	if err := out.Check(); err != nil {
		return 0, fmt.Errorf("par: %w", err)
	}
	if out.N != im.N {
		return 0, errs.Geometry("par.LabelInto", im.N, 0,
			"labeling side %d does not match image side %d", out.N, im.N)
	}
	return e.labelInto(ctx, "par.LabelInto", im, conn, mode, out)
}

// labelInto runs the run-based strip engine (runLabelInto): strip
// labeling (Phase 1), the border merge (Phase 2), the final update over
// runs (Phase 3) and the union-find cleanup (Phase 4). The result is the
// exact labeling of seq.LabelBFS.
//
// It owns the call's cancellation lifecycle: begin/end bracket the phases,
// and a run error (worker panic, context expiry, injected fault) comes back
// as a typed RunError after the scratch has been scrubbed back to its
// ready state, so the engine is immediately reusable.
func (e *Engine) labelInto(ctx context.Context, op string, im *image.Image,
	conn image.Connectivity, mode seq.Mode, out *image.Labels) (int, error) {
	if err := e.begin(op, ctx); err != nil {
		return 0, err
	}
	defer e.end()
	flag := e.stopFlag()
	for i := range e.labelers {
		e.labelers[i].SetStop(flag)
	}
	comps := e.runLabelInto(im, conn, mode, out)
	if err := e.runError(); err != nil {
		e.scrub()
		return 0, err
	}
	return comps, nil
}

// scrub restores the engine's scratch to its ready state after an
// interrupted run. The per-worker dirty lists cannot be trusted (a worker
// may have panicked after uniting but before publishing its list), so the
// union-find is wiped wholesale back to the all-zero ready state instead of
// entry-by-entry. O(n^2), but only ever paid on the error path.
func (e *Engine) scrub() {
	for i := range e.uf.parent {
		e.uf.parent[i] = 0
	}
}

// borderMerge is Phase 2 — resolving the strip boundaries so that labels
// from different strips that belong to one component share a root in the
// concurrent union-find. It runs in two passes: an extraction pass in which
// worker w reduces the boundary between strips w-1 and w to a union-edge
// list in its private append-only slab — AppendBoundaryEdges over the
// boundary's two pixel rows and two strip-label rows, the same seam the
// streaming pipeline merges its bands with — and a resolution pass
// (treeResolve) of one-shot concurrent unites. Strip labels must already
// be painted into out; cross-border link counts land in e.links, raw
// adjacency counts in e.pairs.
func (e *Engine) borderMerge(im *image.Image, out *image.Labels, conn image.Connectivity,
	mode seq.Mode, W int) {
	n := out.N
	e.uf.reset(n*n + 1)
	e.parallelDo(W, func(w int) {
		e.checkFault("border_merge", w, 1)
		e.links[w] = 0
		e.pairs[w] = 0
		e.dirty[w] = e.dirty[w][:0]
		if w == 0 {
			return
		}
		c, _ := stripBounds(w, W, n)
		top, bot := (c-1)*n, c*n
		e.dirty[w], e.pairs[w] = AppendBoundaryEdges(e.dirty[w],
			im.Pix[top:bot], im.Pix[bot:bot+n], out.Lab[top:bot], out.Lab[bot:bot+n],
			conn, mode, e.stopFlag())
	})
	if e.cancelable && e.stop.Load() {
		return
	}
	e.treeResolve(W)
}

// treeResolve is Phase 2b: every worker feeds its edge slab to the
// concurrent union-find through the shared ResolveBoundary loop, one Unite
// per edge. Boundaries are independent, but a strip's labels can reach two
// boundaries, so the union-find must be (and is) safe for concurrent
// unites. Per-worker link counts (unites that joined two distinct sets)
// land in e.links.
func (e *Engine) treeResolve(W int) {
	e.parallelDo(W, func(w int) {
		e.checkFault("border_merge", w, 2)
		e.links[w] = ResolveBoundary(e.dirty[w], &e.uf, e.stopFlag())
	})
}

// finish is Phase 4 plus the component count: restore the union-find's
// all-zero ready state by clearing exactly the entries this run touched,
// then tally strip components minus cross-border merges. With a recorder
// installed it also aggregates the per-worker operation counts gathered by
// the earlier phases.
func (e *Engine) finish(W int) int {
	e.phase("cleanup", func() {
		e.parallelDo(W, func(w int) {
			e.uf.clear(e.dirty[w])
		})
	})
	total := 0
	for w := 0; w < W; w++ {
		total += e.comps[w] - e.links[w]
	}
	if e.obs != nil {
		var comps, links, pairs, edges, finds, relab int64
		for w := 0; w < W; w++ {
			comps += int64(e.comps[w])
			links += int64(e.links[w])
			pairs += e.pairs[w]
			edges += int64(len(e.dirty[w]) / 2)
			finds += e.finds[w]
			relab += e.relab[w]
		}
		e.obs.Add(obs.CtrStripComponents, comps)
		e.obs.Add(obs.CtrBorderLinks, links)
		e.obs.Add(obs.CtrBorderPairs, pairs)
		e.obs.Add(obs.CtrBorderEdges, edges)
		e.obs.Add(obs.CtrUFFinds, finds)
		e.obs.Add(obs.CtrRelabeledPixels, relab)
	}
	return total
}
