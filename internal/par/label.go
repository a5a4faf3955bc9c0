package par

import (
	"context"
	"fmt"

	"parimg/internal/errs"
	"parimg/internal/image"
	"parimg/internal/seq"
)

// checkLabelInput validates the (image, connectivity, mode) triple shared by
// every labeling entry point and returns the connectivity to run, with 0
// resolved to the Conn8 default. Image.Check enforces the structural
// invariants including the n <= MaxSide label-space bound: seed labels are
// the global row-major index + 1 in uint32, so a larger side would silently
// wrap (65536*65536 == 2^32) and collide labels.
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
// next checkpoint (between phases, and every row of the scan and every 64
// rows of the paint) and the call returns an error wrapping
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

// labelInto runs the labeling driver (runLabelInto): one whole-image
// Resolve on the engine's workers, then a parallel paint. The result is
// the exact labeling of seq.LabelBFS.
//
// It owns the call's cancellation lifecycle: begin/end bracket the phases,
// and a run error (worker panic, context expiry, injected fault) comes back
// as a typed RunError. The labeler rebuilds all of its state on every
// Resolve, so nothing needs restoring and the engine is immediately
// reusable.
func (e *Engine) labelInto(ctx context.Context, op string, im *image.Image,
	conn image.Connectivity, mode seq.Mode, out *image.Labels) (int, error) {
	if err := e.begin(op, ctx); err != nil {
		return 0, err
	}
	defer e.end()
	e.bl.SetWorkers(e.workers)
	e.bl.SetStop(e.stopFlag())
	if e.fault != nil {
		e.bl.SetHook(e.stripFault)
	} else {
		e.bl.SetHook(nil)
	}
	comps := e.runLabelInto(im, conn, mode, out)
	if err := e.runError(); err != nil {
		return 0, err
	}
	return comps, nil
}
