package stream

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"parimg/internal/errs"
	"parimg/internal/fault"
	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

const op = "stream.Label"

// DefaultMaxBandPixels is the band budget when Options leaves both band
// knobs zero: bands are sized to at most this many resident pixels (4 Mi
// pixels = 16 MiB of decoded uint32s), small enough to stay cache-friendly
// and large enough that the per-band overhead (one ReadAt, one boundary
// merge) is noise.
const DefaultMaxBandPixels = 4 << 20

// DefaultCheckpointEvery is the checkpoint cadence when Options.Checkpoint
// is set but CheckpointEvery is zero: a record is written after every this
// many committed bands (and always after the final band). Sixteen bands
// amortizes the fsync+rename to noise while bounding the redone work after
// a crash to at most sixteen bands of census.
const DefaultCheckpointEvery = 16

// Options configures an out-of-core labeling run. The zero value labels
// 8-connected binary components with the default band budget, no census,
// no observer, and no cancellation.
type Options struct {
	// Conn is the connectivity (0 means Conn8).
	Conn image.Connectivity
	// Mode selects binary or grey-scale components.
	Mode seq.Mode
	// BandRows fixes the band height in rows. 0 derives it from
	// MaxBandPixels. Bands taller than the image are clamped.
	BandRows int
	// MaxBandPixels caps the resident pixels per band when BandRows is 0
	// (0 means DefaultMaxBandPixels). A single row is always resident, so
	// the effective floor is one row.
	MaxBandPixels int
	// TopK asks for the sizes of the K largest components (0 = none).
	TopK int
	// Context, when non-nil, cancels the run cooperatively: the pipeline
	// observes cancellation at band granularity and inside the band
	// labeler's row loops, and returns the context's typed error.
	Context context.Context
	// StallTimeout, when positive, aborts the run if no band completes a
	// phase for this long — the out-of-core analogue of the engine's
	// barrier watchdog, guarding against a reader that hangs.
	StallTimeout time.Duration
	// Obs, when non-nil, receives per-band phase timings (band_decode,
	// band_label, band_merge, band_write, checkpoint_write, resume_replay)
	// and the merge counters.
	Obs *obs.Recorder
	// Checkpoint, when non-empty, is the path of the durable checkpoint
	// record: after every CheckpointEvery committed census bands (and after
	// the final one) the pipeline crash-atomically rewrites this file with
	// everything needed to continue the run (DESIGN.md §15). A crash at any
	// instant leaves either the previous complete record or the new one.
	Checkpoint string
	// CheckpointEvery is the checkpoint cadence in committed bands (0 means
	// DefaultCheckpointEvery; negative is rejected).
	CheckpointEvery int
	// Resume restarts a run from the record at Checkpoint (which must be
	// set): the census pass seeks to the checkpointed band, replays the
	// seam against the stored boundary rows, and continues. The result —
	// census, metrics schema, and label output — is byte-identical to an
	// uninterrupted run. A structurally broken record fails with
	// ErrCheckpointCorrupt; a record whose input or options fingerprint
	// drifted fails with ErrCheckpointMismatch. Never silently wrong output.
	Resume bool
	// Fault, when non-nil, is consulted at the streaming pipeline's
	// band_commit site (rank 0, round = band index + 1, after the band's
	// census state commits and before any checkpoint write): Delay sleeps
	// there, Crash abandons the run with ErrAborted wrapping
	// *fault.Injected — the hook the crash chaos tests and the kill-window
	// pacing in imgcc use.
	Fault *fault.Injector
}

// Component is one census entry: a component's global minimum seed label
// (row-major pixel index + 1, as a 64-bit value) and its pixel count.
type Component struct {
	Label uint64 `json:"label"`
	Size  int64  `json:"size"`
}

// Result summarizes an out-of-core labeling run.
type Result struct {
	// Width and Height are the image dimensions.
	Width, Height int
	// Components is the number of connected components.
	Components int64
	// Foreground is the number of foreground pixels.
	Foreground int64
	// Bands is the number of band windows in the decomposition
	// (ceil(Height/BandRows)) — a property of the run's geometry, so a
	// resumed run reports the same value as an uninterrupted one even
	// though it decoded fewer bands.
	Bands int
	// BandRows is the band height actually used (the last band may be
	// shorter).
	BandRows int
	// ResumedFrom is the band index the census pass continued at when the
	// run was resumed from a checkpoint, 0 for a fresh run.
	ResumedFrom int
	// Links is the number of cross-band unions performed.
	Links int64
	// Top holds the TopK largest components, largest first (ties broken
	// by smaller label).
	Top []Component `json:"top,omitempty"`
}

// Label labels the connected components of the on-disk binary PGM behind
// r, holding only one band of rows in memory at a time. The image may be
// rectangular, either P5 sample width, and arbitrarily tall — total
// pixels may exceed 2^32, which the resident path's uint32 label space
// cannot represent.
//
// Pass 1 streams bands top to bottom: decode, run-label band-locally,
// merge each band with its predecessor's bottom row through the shared
// slab-merge seam into a sparse 64-bit union-find, and accumulate
// per-fragment sizes. When out is nil the run ends there with the census.
//
// With a non-nil out, a second pass streams the bands again and writes
// the labeling as a P5 PGM: labels densely renumbered 1..components in
// row-major first-seen order (background 0), one byte per sample up to
// 255 components, two big-endian bytes up to 65535 — the same rendering
// the labeling service emits, and re-ingestible by both PGM readers.
// Beyond 65535 components the label output cannot exist in this format
// and the call fails without writing a byte (the census in Result is
// still the complete answer when the error is inspected — but callers
// should re-run without out).
//
// The output is pixel-identical to dense-renumbering the resident
// sequential labeling: band-local seeds lifted by the band's base offset
// are exactly the global row-major seeds, and unite-by-minimum makes
// every root the component's global minimum seed, so the row-major
// first-seen order of roots — hence every dense id — matches.
//
// With Options.Checkpoint set, pass 1 additionally writes a durable
// checkpoint record on its cadence; with Options.Resume, pass 1 restarts
// from that record instead of band 0 and the run's outputs are
// byte-identical to an uninterrupted run (see Options and DESIGN.md §15).
func Label(r io.ReaderAt, out io.Writer, opt Options) (*Result, error) {
	conn := opt.Conn
	if conn == 0 {
		conn = image.Conn8
	}
	if !conn.Valid() {
		return nil, errs.Bad(op, "connectivity %d is not 4 or 8", int(conn))
	}
	hdr, err := image.ReadPGMHeader(r)
	if err != nil {
		return nil, err
	}
	bandRows, err := resolveBandRows(&hdr, opt)
	if err != nil {
		return nil, err
	}
	// Probe the final pixel byte before allocating band buffers: a crafted
	// header declaring giant dimensions over a short file must fail with a
	// typed error here, not force a band-sized allocation first.
	var probe [1]byte
	last := hdr.DataOffset + hdr.Pixels()*int64(hdr.SampleBytes()) - 1
	if _, err := r.ReadAt(probe[:], last); err != nil {
		return nil, errs.Bad(op, "PGM pixel data truncated: %dx%d at %d byte(s)/sample needs %d data bytes: %v",
			hdr.Width, hdr.Height, hdr.SampleBytes(), hdr.Pixels()*int64(hdr.SampleBytes()), err)
	}

	ckptEvery := opt.CheckpointEvery
	if ckptEvery < 0 {
		return nil, errs.Bad(op, "checkpoint cadence %d is negative", ckptEvery)
	}
	if ckptEvery == 0 {
		ckptEvery = DefaultCheckpointEvery
	}
	if opt.Resume && opt.Checkpoint == "" {
		return nil, errs.Bad(op, "resume requested without a checkpoint path")
	}

	wd := newWatchdog(opt.Context, opt.StallTimeout)
	if err := wd.start(); err != nil {
		return nil, err
	}
	defer wd.join()

	p := &pipeline{
		hdr:       hdr,
		r:         r,
		conn:      conn,
		mode:      opt.Mode,
		bandRows:  bandRows,
		rec:       opt.Obs,
		wd:        wd,
		uf:        NewUnionFind64(),
		sizes:     make(map[uint64]int64),
		ckptPath:  opt.Checkpoint,
		ckptEvery: ckptEvery,
		fault:     opt.Fault,
	}
	p.bl.SetStop(&wd.stop)

	if p.ckptPath != "" {
		// The raw header bytes are the checkpoint's input fingerprint,
		// captured once whether this run writes records or validates one.
		if p.hdrBytes, err = readHeaderBytes(r, hdr); err != nil {
			return nil, err
		}
	}
	if opt.Resume {
		t := p.rec.StartPhase()
		c, err := loadCheckpoint(p.ckptPath)
		if err == nil {
			err = c.matches(hdr, p.hdrBytes, conn, p.mode, bandRows)
		}
		if err != nil {
			p.rec.EndPhase("resume_replay", "", t)
			return nil, err
		}
		p.startBand = p.restore(c)
		p.rec.EndPhase("resume_replay", "", t)
		p.rec.Add(obs.CtrResumeBand, int64(p.startBand))
	}

	res, err := p.census(opt.TopK)
	if err != nil {
		return nil, err
	}
	res.ResumedFrom = p.startBand
	if out != nil {
		if err := p.writeLabels(out, res.Components); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// resolveBandRows turns the Options band knobs into a concrete band
// height in [1, Height], rejecting bands whose pixel count would not fit
// the band-local uint32 label space.
func resolveBandRows(hdr *image.PGMHeader, opt Options) (int, error) {
	rows := opt.BandRows
	if rows <= 0 {
		budget := opt.MaxBandPixels
		if budget <= 0 {
			budget = DefaultMaxBandPixels
		}
		rows = budget / hdr.Width
		if rows < 1 {
			rows = 1 // one row must be resident no matter the budget
		}
	}
	if rows > hdr.Height {
		rows = hdr.Height
	}
	// Band-local seeds are band-row-major index + 1 in uint32; keep the
	// band area clear of the ceiling (the resident MaxSide bound squared).
	if int64(rows)*int64(hdr.Width) >= int64(errs.MaxSide)*int64(errs.MaxSide) {
		return 0, errs.Bad(op,
			"band of %d x %d pixels exceeds the band-local uint32 label space; lower -band-rows",
			rows, hdr.Width)
	}
	return rows, nil
}

// pipeline carries the per-run state shared by the census and label
// passes: the band labeler and its reusable buffers, the sparse 64-bit
// merge state, and the accumulated statistics.
type pipeline struct {
	hdr      image.PGMHeader
	r        io.ReaderAt
	conn     image.Connectivity
	mode     seq.Mode
	bandRows int
	rec      *obs.Recorder
	wd       *watchdog

	bl      seq.BandLabeler
	pix     []uint32 // current band pixels
	scratch []byte   // raw sample bytes for ReadRows
	row     []uint32 // one painted seam row, band-local labels
	runBuf  []uint32 // per-run scratch: component sizes, then dense ids

	uf      *UnionFind64
	sizes   map[uint64]int64 // fragment sizes by lifted band-local label
	edgeBuf []uint64
	prevPix []uint32 // previous band's bottom pixel row
	prevLab []uint64 // previous band's bottom label row, lifted
	botLab  []uint64 // current band's top label row, lifted (scratch)

	ckptPath  string // checkpoint record path ("" = no checkpointing)
	ckptEvery int    // checkpoint cadence in committed bands
	hdrBytes  []byte // raw input bytes [0, DataOffset): the fingerprint
	startBand int    // census pass starts here (0 fresh, >0 resumed)
	fault     *fault.Injector

	stripComps int64
	links      int64
	pairs      int64
	edges      int64
}

// forEachBand streams the image top to bottom starting at band index
// from, decoding and resolving each window's runs (p.bl holds them; no
// label plane is painted) and then handing it to fn with its absolute
// start row and the band's component count. It owns the band_decode and
// band_label phases and the cooperative stop polling between phases; fn
// runs whatever per-band work the pass needs. A resumed census pass starts
// past the checkpointed bands; the write pass always starts at 0.
func (p *pipeline) forEachBand(from int, fn func(r0, rows, comps int) error) error {
	W := p.hdr.Width
	for r0 := from * p.bandRows; r0 < p.hdr.Height; r0 += p.bandRows {
		if err := p.wd.interrupted(); err != nil {
			return err
		}
		rows := p.bandRows
		if r0+rows > p.hdr.Height {
			rows = p.hdr.Height - r0
		}

		t := p.rec.StartPhase()
		if cap(p.pix) < p.bandRows*W {
			p.pix = make([]uint32, p.bandRows*W)
		}
		pix := p.pix[:rows*W]
		var err error
		p.scratch, err = p.hdr.ReadRows(p.r, r0, rows, pix, p.scratch)
		p.rec.EndPhase("band_decode", "", t)
		if err != nil {
			return err
		}
		p.wd.progressed()

		t = p.rec.StartPhase()
		comps := p.bl.Resolve(pix, rows, W, p.conn, p.mode)
		p.rec.EndPhase("band_label", "", t)
		if err := p.wd.interrupted(); err != nil {
			return err
		}
		p.wd.progressed()

		p.rec.Add(obs.CtrBands, 1)
		if err := fn(r0, rows, comps); err != nil {
			return err
		}
		p.wd.progressed()
	}
	return nil
}

// census is pass 1: stream every band from the start band (0 fresh,
// checkpointed band when resuming), merge adjacent bands, and fold each
// band's component sizes into the census, producing the component count,
// foreground count and top-K census. Counters: strip components and run
// counts per band, boundary pairs/edges/links per merge, checkpoint
// records written.
//
// Only the band's top and bottom label rows are ever painted: the top row
// for the merge with the previous band, the bottom row as the seam the
// next band merges against. Everything else works from the run table.
//
// On resume the normal merge path IS the seam replay: the restored
// prevPix/prevLab rows are exactly what the uninterrupted run would hold
// entering this band, band labeling is deterministic, and
// unite-by-minimum is idempotent, so the forest and size map evolve
// identically from here on.
func (p *pipeline) census(topK int) (*Result, error) {
	W := p.hdr.Width
	err := p.forEachBand(p.startBand, func(r0, rows, comps int) error {
		p.stripComps += int64(comps)
		p.rec.Add(obs.CtrStripComponents, int64(comps))
		base := uint64(r0) * uint64(W)
		if p.mode == seq.Grey {
			p.rec.Add(obs.CtrGreyRuns, int64(len(p.bl.Runs())/2))
		} else {
			p.rec.Add(obs.CtrRuns, int64(len(p.bl.Runs())/2))
		}

		if r0 > 0 {
			t := p.rec.StartPhase()
			p.botLab = p.seamRow(0, base, p.botLab)
			var pairs int64
			var links int
			p.edgeBuf, pairs, links = MergeAdjacent(p.uf,
				p.prevPix, p.pix[:W], p.prevLab, p.botLab,
				p.conn, p.mode, &p.wd.stop, p.edgeBuf)
			p.rec.EndPhase("band_merge", "", t)
			p.rec.Add(obs.CtrBorderPairs, pairs)
			p.rec.Add(obs.CtrBorderEdges, int64(len(p.edgeBuf)/2))
			p.rec.Add(obs.CtrBorderLinks, int64(links))
			p.pairs += pairs
			p.edges += int64(len(p.edgeBuf) / 2)
			p.links += int64(links)
		}

		t := p.rec.StartPhase()
		// Fragment sizes: one sizes update per band component, keyed by its
		// lifted root seed (the fragment's global label), so the map holds
		// one entry per band-level fragment over the whole run: components
		// + links entries in total.
		p.runBuf = p.bl.ComponentSizes(p.runBuf)
		seeds := p.bl.Seeds()
		for k, r := range p.bl.Roots() {
			if int(r) == k {
				p.sizes[base+uint64(seeds[k])] += int64(p.runBuf[k])
			}
		}
		// Save the band's bottom boundary for the next merge.
		if cap(p.prevPix) < W {
			p.prevPix = make([]uint32, W)
		}
		p.prevPix = p.prevPix[:W]
		copy(p.prevPix, p.pix[(rows-1)*W:rows*W])
		p.prevLab = p.seamRow(rows-1, base, p.prevLab)
		p.rec.EndPhase("band_fold", "", t)

		// The band's census state is now fully committed: fault site, then
		// the checkpoint cadence.
		return p.bandCommitted(r0/p.bandRows, r0+rows == p.hdr.Height)
	})
	if err != nil {
		return nil, err
	}
	if err := p.wd.interrupted(); err != nil {
		return nil, err
	}
	t := p.rec.StartPhase()
	res, err := p.foldCensus(topK)
	p.rec.EndPhase("census_fold", "", t)
	return res, err
}

// seamRow paints row i of the current band and lifts it into the global
// label space in dst (grown as needed and returned): background stays 0,
// foreground becomes base + the band-local label.
func (p *pipeline) seamRow(i int, base uint64, dst []uint64) []uint64 {
	W := p.hdr.Width
	if cap(p.row) < W {
		p.row = make([]uint32, W)
	}
	row := p.row[:W]
	p.bl.PaintRow(i, row)
	if cap(dst) < W {
		dst = make([]uint64, W)
	}
	dst = dst[:W]
	for j, v := range row {
		if v == 0 {
			dst[j] = 0
			continue
		}
		dst[j] = base + uint64(v)
	}
	return dst
}

// foldCensus folds the fragment sizes through the final forest into the
// run's Result. Per-component sizes are only needed for the top-K, so the
// map of them is built only when one is asked for.
func (p *pipeline) foldCensus(topK int) (*Result, error) {
	res := &Result{
		Width:      p.hdr.Width,
		Height:     p.hdr.Height,
		Components: p.stripComps - p.links,
		Bands:      (p.hdr.Height + p.bandRows - 1) / p.bandRows,
		BandRows:   p.bandRows,
		Links:      p.links,
	}
	var roots int64
	for l, s := range p.sizes {
		res.Foreground += s
		if p.uf.IsRoot(l) {
			roots++
		}
	}
	if roots != res.Components {
		// Cross-check: the size fold sees exactly one root per component.
		return nil, errs.Bad(op, "component accounting mismatch: %d roots, %d by links",
			roots, res.Components)
	}
	if topK > 0 {
		final := make(map[uint64]int64, roots)
		for l, s := range p.sizes {
			final[p.uf.Find(l)] += s
		}
		all := make([]Component, 0, len(final))
		for l, s := range final {
			all = append(all, Component{Label: l, Size: s})
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].Size != all[b].Size {
				return all[a].Size > all[b].Size
			}
			return all[a].Label < all[b].Label
		})
		if len(all) > topK {
			all = all[:topK]
		}
		res.Top = all
	}
	return res, nil
}

// writeLabels is pass 2: stream the bands again (the band decomposition
// and band-local labelings are deterministic, so the labels reappear
// exactly) and write the dense-renumbered label PGM. Dense ids are
// assigned in row-major first-seen order of each pixel's 64-bit root, so
// the output matches the resident renderer's byte for byte.
func (p *pipeline) writeLabels(out io.Writer, components int64) error {
	if components > image.MaxPGMVal {
		return errs.Bad(op,
			"%d components exceed the PGM 16-bit sample ceiling (%d); rerun without the label output",
			components, image.MaxPGMVal)
	}
	W := p.hdr.Width
	maxval := int(components)
	if maxval == 0 {
		maxval = 1 // PGM requires maxval >= 1 even for an all-background image
	}
	sb := 1
	if maxval > 255 {
		sb = 2
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n%d\n", W, p.hdr.Height, maxval); err != nil {
		return errs.Bad(op, "writing label PGM header: %v", err)
	}
	remap := make(map[uint64]uint32, components)
	var next uint32
	var rowBuf []byte
	err := p.forEachBand(0, func(r0, rows, _ int) error {
		t := p.rec.StartPhase()
		defer p.rec.EndPhase("band_write", "", t)
		base := uint64(r0) * uint64(W)
		if cap(rowBuf) < rows*W*sb {
			rowBuf = make([]byte, rows*W*sb)
		}
		buf := rowBuf[:rows*W*sb]
		clear(buf)
		runs, roots, seeds, off := p.bl.Runs(), p.bl.Roots(), p.bl.Seeds(), p.bl.RowOffsets()
		if cap(p.runBuf) < len(roots) {
			p.runBuf = make([]uint32, len(roots), cap(roots))
		}
		ids := p.runBuf[:len(roots)]
		// One Find and dense-id lookup per band root, then a span fill per
		// run. Runs are walked in row-major order and a band root is its
		// band component's first run, so ids are assigned exactly where a
		// per-pixel scan would first see each root.
		for i := 0; i < rows; i++ {
			row := buf[i*W*sb : (i+1)*W*sb]
			for k := off[i] / 2; k < off[i+1]/2; k++ {
				r := roots[k]
				if r == k {
					root := p.uf.Find(base + uint64(seeds[k]))
					id, ok := remap[root]
					if !ok {
						next++
						id = next
						remap[root] = id
					}
					ids[k] = id
				}
				fillSamples(row[int(runs[2*k])*sb:int(runs[2*k+1])*sb], ids[r], sb)
			}
		}
		if _, err := bw.Write(buf); err != nil {
			return errs.Bad(op, "writing label rows [%d,%d): %v", r0, r0+rows, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return errs.Bad(op, "flushing label PGM: %v", err)
	}
	return nil
}

// fillSamples writes id into every sb-byte sample of span: one byte, or
// two bytes big-endian.
func fillSamples(span []byte, id uint32, sb int) {
	if sb == 1 {
		v := byte(id)
		for i := range span {
			span[i] = v
		}
		return
	}
	hi, lo := byte(id>>8), byte(id)
	for i := 0; i+1 < len(span); i += 2 {
		span[i], span[i+1] = hi, lo
	}
}

// bandCommitted runs after band (0-based index) has fully committed its
// census state — merge done, fragment sizes folded in, boundary rows
// saved. It first polls the band_commit fault site (rank 0, round =
// band+1): Delay sleeps in place, Crash abandons the run exactly as a
// process death here would, and Panic raises the injected payload. Then,
// when checkpointing is on, it rewrites the checkpoint record on the
// cadence — and always after the last band, so a crash during the write
// pass resumes without redoing any census work.
func (p *pipeline) bandCommitted(band int, last bool) error {
	site := fault.Site{Name: "band_commit", Rank: 0, Round: band + 1}
	switch act := p.fault.Decide(site); act.Class {
	case fault.None:
	case fault.Delay:
		time.Sleep(act.Delay)
	case fault.Panic:
		panic(&fault.Injected{Site: site})
	default: // Crash (and NoShow, degraded): abandon the run right here.
		return errs.Aborted(op, &fault.Injected{Site: site},
			"injected crash after band %d committed", band)
	}
	if p.ckptPath == "" || ((band+1)%p.ckptEvery != 0 && !last) {
		return nil
	}
	t := p.rec.StartPhase()
	err := p.saveCheckpoint(band + 1)
	p.rec.EndPhase("checkpoint_write", "", t)
	if err != nil {
		return err
	}
	p.rec.Add(obs.CtrCheckpoints, 1)
	p.wd.progressed()
	return nil
}

// watchdog is the pipeline's cancellation state: a cooperative stop flag
// the band loops poll, set by a monitor goroutine when the context fires
// or no phase completes within the stall timeout. join always reaps the
// monitor, so a canceled run leaks nothing.
type watchdog struct {
	stop     atomic.Bool
	progress atomic.Int64
	ctx      context.Context
	stall    time.Duration
	started  time.Time
	quit     chan struct{}
	done     chan struct{}
	cause    error // written by the monitor before done closes
}

func newWatchdog(ctx context.Context, stall time.Duration) *watchdog {
	return &watchdog{ctx: ctx, stall: stall}
}

// start checks for pre-canceled contexts and launches the monitor when
// there is anything to watch; otherwise the watchdog is inert and free.
func (wd *watchdog) start() error {
	if wd.ctx != nil {
		if err := wd.ctx.Err(); err != nil {
			return errs.FromContext(op, 0, err)
		}
	}
	wd.started = time.Now()
	if (wd.ctx == nil || wd.ctx.Done() == nil) && wd.stall <= 0 {
		return nil
	}
	wd.quit = make(chan struct{})
	wd.done = make(chan struct{})
	go wd.run()
	return nil
}

func (wd *watchdog) run() {
	defer close(wd.done)
	var ctxDone <-chan struct{}
	if wd.ctx != nil {
		ctxDone = wd.ctx.Done()
	}
	var tickC <-chan time.Time
	if wd.stall > 0 {
		tick := time.NewTicker(wd.stall/4 + time.Millisecond)
		defer tick.Stop()
		tickC = tick.C
	}
	last := wd.progress.Load()
	lastChange := time.Now()
	for {
		select {
		case <-wd.quit:
			return
		case <-ctxDone:
			wd.cause = errs.FromContext(op, time.Since(wd.started), wd.ctx.Err())
			wd.stop.Store(true)
			return
		case now := <-tickC:
			if p := wd.progress.Load(); p != last {
				last, lastChange = p, now
				continue
			}
			if now.Sub(lastChange) >= wd.stall {
				wd.cause = errs.Deadline(op, time.Since(wd.started), nil,
					"no band phase completed for %v", wd.stall)
				wd.stop.Store(true)
				return
			}
		}
	}
}

// progressed bumps the liveness counter the stall monitor watches.
func (wd *watchdog) progressed() { wd.progress.Add(1) }

// interrupted returns the abort cause once the run is canceled, nil while
// it is live. The stop flag (raised by the monitor for stalls and for
// cancellation noticed mid-phase) and the context itself are both
// checked, so a checkpoint observes cancellation deterministically even
// if the monitor goroutine has not been scheduled yet; the monitor is
// joined before its recorded cause is read.
func (wd *watchdog) interrupted() error {
	if !wd.stop.Load() {
		if wd.ctx == nil || wd.ctx.Err() == nil {
			return nil
		}
		wd.stop.Store(true)
	}
	wd.join()
	if wd.cause != nil {
		return wd.cause
	}
	if wd.ctx != nil && wd.ctx.Err() != nil {
		return errs.FromContext(op, time.Since(wd.started), wd.ctx.Err())
	}
	return errs.Canceled(op, time.Since(wd.started), "labeling interrupted")
}

// join stops and reaps the monitor goroutine; safe to call repeatedly.
func (wd *watchdog) join() {
	if wd.done == nil {
		return
	}
	select {
	case <-wd.quit:
	default:
		close(wd.quit)
	}
	<-wd.done
}
