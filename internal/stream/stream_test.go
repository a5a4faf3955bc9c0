package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"parimg/internal/errs"
	"parimg/internal/fault/leakcheck"
	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/par"
	"parimg/internal/seq"
)

// encodePGM renders a rows x cols pixel buffer as a binary P5 PGM with the
// given maxval, using the format's one- or two-byte sample width. It is
// the test-side writer for arbitrary (including rectangular and 16-bit)
// inputs.
func encodePGM(pix []uint32, rows, cols, maxval int) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "P5\n%d %d\n%d\n", cols, rows, maxval)
	for _, v := range pix {
		if int(v) > maxval {
			v = uint32(maxval)
		}
		if maxval > 255 {
			buf.WriteByte(byte(v >> 8))
		}
		buf.WriteByte(byte(v))
	}
	return buf.Bytes()
}

// residentLabels labels a rows x cols buffer entirely in memory with the
// rectangular-native tile labeler, seeding labels with the global
// row-major index + 1 — the exact label space the streaming pipeline
// reproduces out of core.
func residentLabels(pix []uint32, rows, cols int, conn image.Connectivity,
	mode seq.Mode) ([]uint32, int) {
	lab := make([]uint32, rows*cols)
	comps, _ := seq.TileLabeler(pix, rows, cols, conn, mode,
		func(i, j int) uint32 { return uint32(i*cols+j) + 1 }, lab, nil, nil)
	return lab, comps
}

// renderDense renders a labeling the way the streaming writer does: labels
// densely renumbered 1..components in row-major first-seen order as a P5
// PGM with maxval = components (floor 1).
func renderDense(lab []uint32, rows, cols, comps int) []byte {
	maxval := comps
	if maxval == 0 {
		maxval = 1
	}
	remap := make(map[uint32]uint32, comps)
	var next uint32
	dense := make([]uint32, len(lab))
	for i, l := range lab {
		if l == 0 {
			continue
		}
		id, ok := remap[l]
		if !ok {
			next++
			id = next
			remap[l] = id
		}
		dense[i] = id
	}
	return encodePGM(dense, rows, cols, maxval)
}

// streamLabel runs the out-of-core pipeline over an in-memory PGM and
// returns the result and the emitted label PGM bytes.
func streamLabel(t *testing.T, pgm []byte, opt Options) (*Result, []byte) {
	t.Helper()
	var out bytes.Buffer
	res, err := Label(bytes.NewReader(pgm), &out, opt)
	if err != nil {
		t.Fatalf("stream.Label: %v", err)
	}
	return res, out.Bytes()
}

// TestStreamMatchesResident is the pixel-identity sweep: every catalog
// pattern plus binary and grey DARPA scenes, both connectivities, several
// band heights (including one-row bands and bands taller than the image),
// all compared byte for byte against the dense rendering of the resident
// reference labeling.
func TestStreamMatchesResident(t *testing.T) {
	type input struct {
		name string
		im   *image.Image
		mode seq.Mode
	}
	inputs := []input{
		{"darpa-binary", image.DARPAScene(64, 16, 1), seq.Binary},
		{"darpa-grey", image.DARPAScene(64, 16, 2), seq.Grey},
		{"random-grey", image.RandomGrey(48, 8, 3), seq.Grey},
	}
	for _, id := range image.AllPatterns() {
		inputs = append(inputs, input{id.String(), image.Generate(id, 64), seq.Binary})
	}
	for _, in := range inputs {
		n := in.im.N
		pgm := encodePGM(in.im.Pix, n, n, 255)
		refConn := map[image.Connectivity][]uint32{}
		for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
			lab, comps := residentLabels(in.im.Pix, n, n, conn, in.mode)
			refConn[conn] = lab
			want := renderDense(lab, n, n, comps)
			for _, bandRows := range []int{1, 5, n, n + 37} {
				name := fmt.Sprintf("%s/conn%d/band%d", in.name, int(conn), bandRows)
				res, got := streamLabel(t, pgm, Options{
					Conn: conn, Mode: in.mode, BandRows: bandRows, TopK: 5,
				})
				if res.Components != int64(comps) {
					t.Errorf("%s: %d components, want %d", name, res.Components, comps)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: label PGM differs from resident rendering", name)
				}
				wantBands := (n + bandRows - 1) / bandRows
				if bandRows > n {
					wantBands = 1
				}
				if res.Bands != wantBands {
					t.Errorf("%s: %d bands, want %d", name, res.Bands, wantBands)
				}
				checkCensus(t, name, res, in.im.Pix, refConn[conn])
			}
		}
	}
}

// checkCensus verifies the foreground count and the top-K entries against
// sizes computed from the resident labeling.
func checkCensus(t *testing.T, name string, res *Result, pix, lab []uint32) {
	t.Helper()
	var fg int64
	sizes := map[uint32]int64{}
	for i, l := range lab {
		if pix[i] != 0 {
			fg++
		}
		if l != 0 {
			sizes[l]++
		}
	}
	if res.Foreground != fg {
		t.Errorf("%s: foreground %d, want %d", name, res.Foreground, fg)
	}
	for _, c := range res.Top {
		if want := sizes[uint32(c.Label)]; c.Size != want {
			t.Errorf("%s: census label %d size %d, want %d", name, c.Label, c.Size, want)
		}
	}
	for i := 1; i < len(res.Top); i++ {
		if res.Top[i].Size > res.Top[i-1].Size {
			t.Errorf("%s: census not sorted by size at %d", name, i)
		}
	}
}

// TestStreamAgreesWithParEngine pins the refactored slab-merge seam from
// both sides: the host-parallel engine (both border-merge backends) and
// the streaming pipeline must produce the same components and the same
// dense rendering on the same image.
func TestStreamAgreesWithParEngine(t *testing.T) {
	im := image.Generate(image.DualSpiral, 96)
	pgm := encodePGM(im.Pix, im.N, im.N, 255)
	refLab, comps := residentLabels(im.Pix, im.N, im.N, image.Conn8, seq.Binary)
	want := renderDense(refLab, im.N, im.N, comps)
	for _, merge := range []par.Merge{par.MergeTree, par.MergeSV} {
		e := par.NewEngine(4)
		e.SetMerge(merge)
		got, err := e.LabelErr(im, image.Conn8, seq.Binary)
		if err != nil {
			t.Fatalf("merge=%v: %v", merge, err)
		}
		if got.Components() != comps {
			t.Errorf("merge=%v: engine found %d components, want %d", merge, got.Components(), comps)
		}
		if pr := renderDense(got.Lab, im.N, im.N, got.Components()); !bytes.Equal(pr, want) {
			t.Errorf("merge=%v: engine rendering differs from resident reference", merge)
		}
	}
	res, got := streamLabel(t, pgm, Options{Conn: image.Conn8, BandRows: 17})
	if res.Components != int64(comps) {
		t.Errorf("stream found %d components, want %d", res.Components, comps)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stream rendering differs from resident reference")
	}
}

// TestStreamRectangular exercises the path resident labeling cannot take
// at all: a non-square image, legal on the streaming path.
func TestStreamRectangular(t *testing.T) {
	const rows, cols = 101, 13
	pix := make([]uint32, rows*cols)
	for r := 0; r < rows; r++ {
		if (r+1)%7 == 0 {
			continue // background row cuts every stripe
		}
		for c := 0; c < cols; c += 2 {
			pix[r*cols+c] = 1
		}
	}
	pgm := encodePGM(pix, rows, cols, 255)
	for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
		lab, comps := residentLabels(pix, rows, cols, conn, seq.Binary)
		want := renderDense(lab, rows, cols, comps)
		res, got := streamLabel(t, pgm, Options{Conn: conn, BandRows: 6})
		if res.Components != int64(comps) {
			t.Errorf("conn%d: %d components, want %d", int(conn), res.Components, comps)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("conn%d: rendering differs from resident reference", int(conn))
		}
	}
}

// TestStream16BitInput runs the pipeline over a two-byte-per-sample P5 —
// the width the labeling service's own 16-bit label PGMs use, so service
// output can be re-streamed.
func TestStream16BitInput(t *testing.T) {
	const n = 32
	pix := make([]uint32, n*n)
	for i := range pix {
		if (i/n+i%n)%3 != 0 {
			pix[i] = uint32(300 + 1000*((i/n)/4)) // grey levels beyond one byte
		}
	}
	pgm := encodePGM(pix, n, n, 65535)
	lab, comps := residentLabels(pix, n, n, image.Conn4, seq.Grey)
	want := renderDense(lab, n, n, comps)
	res, got := streamLabel(t, pgm, Options{Conn: image.Conn4, Mode: seq.Grey, BandRows: 5})
	if res.Components != int64(comps) {
		t.Fatalf("%d components, want %d", res.Components, comps)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("16-bit rendering differs from resident reference")
	}
	// The resident reader must agree on the pixels it decodes from the
	// same bytes (it gained the two-byte path alongside this pipeline).
	im, err := image.ReadPGM(bytes.NewReader(pgm))
	if err != nil {
		t.Fatalf("resident ReadPGM of 16-bit input: %v", err)
	}
	for i := range pix {
		if im.Pix[i] != pix[i] {
			t.Fatalf("resident ReadPGM pixel %d = %d, want %d", i, im.Pix[i], pix[i])
		}
	}
}

// TestStreamAllBackground pins the degenerate image: zero components, a
// legal maxval-1 all-zero label PGM.
func TestStreamAllBackground(t *testing.T) {
	const rows, cols = 9, 4
	pgm := encodePGM(make([]uint32, rows*cols), rows, cols, 255)
	res, got := streamLabel(t, pgm, Options{BandRows: 2, TopK: 3})
	if res.Components != 0 || res.Foreground != 0 || len(res.Top) != 0 {
		t.Fatalf("all-background result: %+v", res)
	}
	want := renderDense(make([]uint32, rows*cols), rows, cols, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("all-background rendering differs")
	}
}

// TestStreamComponentOverflow: more components than the PGM sample space
// can name must fail the label pass without writing a byte, while the
// census-only run still answers.
func TestStreamComponentOverflow(t *testing.T) {
	const n = 400 // conn4 checkerboard: 80000 isolated pixels > 65535
	pix := make([]uint32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if (i+j)%2 == 0 {
				pix[i*n+j] = 1
			}
		}
	}
	pgm := encodePGM(pix, n, n, 255)
	res, err := Label(bytes.NewReader(pgm), nil, Options{Conn: image.Conn4, BandRows: 64})
	if err != nil {
		t.Fatalf("census-only: %v", err)
	}
	if res.Components != n*n/2 {
		t.Fatalf("census-only found %d components, want %d", res.Components, n*n/2)
	}
	var out bytes.Buffer
	if _, err := Label(bytes.NewReader(pgm), &out, Options{Conn: image.Conn4, BandRows: 64}); err == nil {
		t.Fatalf("label output of %d components did not fail", n*n/2)
	} else if !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("overflow error = %v, want ErrBadInput", err)
	}
	if out.Len() != 0 {
		t.Fatalf("overflowing label pass wrote %d bytes before failing", out.Len())
	}
}

// TestStreamTruncated: a header promising more pixel data than the file
// holds fails with a typed error before any band buffer is allocated.
func TestStreamTruncated(t *testing.T) {
	pgm := []byte("P5\n100000 100000\n255\nshort")
	if _, err := Label(bytes.NewReader(pgm), nil, Options{}); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("truncated input error = %v, want ErrBadInput", err)
	}
}

// TestStreamMetrics checks the observability wiring: per-band phases, the
// bands counter, and a document that passes the schema validator.
func TestStreamMetrics(t *testing.T) {
	im := image.Generate(image.FourSquares, 64)
	pgm := encodePGM(im.Pix, im.N, im.N, 255)
	rec := obs.NewRecorder()
	res, _ := streamLabel(t, pgm, Options{BandRows: 16, Obs: rec})
	m := rec.Snapshot()
	m.Schema = obs.Schema
	if err := m.Validate(); err != nil {
		t.Fatalf("metrics do not validate: %v", err)
	}
	// Both passes stream all bands: census + label = 2x.
	if got := rec.Counter(obs.CtrBands); got != int64(2*res.Bands) {
		t.Errorf("bands counter = %d, want %d", got, 2*res.Bands)
	}
	for _, phase := range []string{"band_decode", "band_label", "band_merge", "band_write"} {
		found := false
		for _, ph := range m.Phases {
			if ph.Name == phase {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("phase %q not recorded", phase)
		}
	}
	if rec.Counter(obs.CtrStripComponents) == 0 || rec.Counter(obs.CtrRuns) == 0 {
		t.Errorf("strip components / runs counters not recorded")
	}
}

// TestStreamMetricsCoverage pins that the named phases of a stream
// metrics document cover at least 99% of the wall time of the
// stream.Label call, for a census-only run, a census+write run and a
// resumed run. Timer granularity and scheduling make single samples
// noisy, so the best of five attempts must pass — the property is that
// the instrumentation has no structural gaps.
func TestStreamMetricsCoverage(t *testing.T) {
	im := image.RandomBinary(1024, 0.43, 11)
	pgm := encodePGM(im.Pix, im.N, im.N, 255)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	base := Options{BandRows: 64, TopK: 3}
	crashed := base
	crashed.Checkpoint = ckpt
	crashed.CheckpointEvery = 4
	crashed.Fault = crashAt(9)
	if _, err := Label(bytes.NewReader(pgm), nil, crashed); !errors.Is(err, errs.ErrAborted) {
		t.Fatalf("crashed run error = %v, want ErrAborted", err)
	}
	record, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	resume := crashed
	resume.Fault = nil
	resume.Resume = true

	for _, c := range []struct {
		name  string
		opt   Options
		write bool
	}{
		{"census", base, false},
		{"census+write", base, true},
		{"resumed", resume, true},
	} {
		best := 0.0
		for attempt := 0; attempt < 5 && best < 0.99; attempt++ {
			rec := obs.NewRecorder()
			opt := c.opt
			opt.Obs = rec
			if opt.Resume {
				// Each resumed attempt rewrites the record; start every
				// one from the crash's record.
				if err := os.WriteFile(ckpt, record, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var out io.Writer
			if c.write {
				out = io.Discard
			}
			start := time.Now()
			if _, err := Label(bytes.NewReader(pgm), out, opt); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			elapsed := time.Since(start)
			best = max(best, float64(rec.Snapshot().WallPhaseNS())/float64(elapsed.Nanoseconds()))
		}
		t.Logf("%s: phase coverage %.4f", c.name, best)
		if best < 0.99 {
			t.Errorf("%s: phase coverage %.4f < 0.99 in all attempts", c.name, best)
		}
	}
}

// cancelAfterReader cancels a context after a fixed number of ReadAt
// calls, then keeps serving — the pipeline must notice cooperatively.
type cancelAfterReader struct {
	r      io.ReaderAt
	calls  atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (c *cancelAfterReader) ReadAt(p []byte, off int64) (int, error) {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.r.ReadAt(p, off)
}

// TestStreamCancellation: context cancellation mid-run surfaces as a typed
// ErrCanceled, pre-canceled contexts never start, and no goroutine (the
// stall monitor included) outlives the call.
func TestStreamCancellation(t *testing.T) {
	leakcheck.Check(t)
	im := image.Generate(image.DualSpiral, 96)
	pgm := encodePGM(im.Pix, im.N, im.N, 255)

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Label(bytes.NewReader(pgm), nil, Options{Context: pre}); !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("pre-canceled error = %v, want ErrCanceled", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel after the third band decode; plenty of bands remain.
	r := &cancelAfterReader{r: bytes.NewReader(pgm), after: 4, cancel: cancel}
	_, err := Label(r, io.Discard, Options{Context: ctx, BandRows: 8, StallTimeout: time.Minute})
	if !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("mid-run cancellation error = %v, want ErrCanceled", err)
	}
}

// slowReader sleeps on every ReadAt, longer than the stall window.
type slowReader struct {
	r     io.ReaderAt
	delay time.Duration
}

func (s *slowReader) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(s.delay)
	return s.r.ReadAt(p, off)
}

// TestStreamStallWatchdog: a reader that stops making progress trips the
// stall timeout with a typed ErrDeadline, and the monitor goroutine is
// reaped.
func TestStreamStallWatchdog(t *testing.T) {
	leakcheck.Check(t)
	im := image.Generate(image.HorizontalBars, 64)
	pgm := encodePGM(im.Pix, im.N, im.N, 255)
	r := &slowReader{r: bytes.NewReader(pgm), delay: 120 * time.Millisecond}
	_, err := Label(r, nil, Options{BandRows: 4, StallTimeout: 25 * time.Millisecond})
	if !errors.Is(err, errs.ErrDeadline) {
		t.Fatalf("stalled run error = %v, want ErrDeadline", err)
	}
}

// TestUnionFind64 pins the sparse structure's unite-by-minimum contract
// over labels beyond the 32-bit space.
func TestUnionFind64(t *testing.T) {
	u := NewUnionFind64()
	const big = uint64(1) << 40
	if !u.Unite(big+5, big+9) || !u.Unite(big+9, 3) {
		t.Fatalf("fresh unites reported no link")
	}
	if u.Unite(big+5, 3) {
		t.Fatalf("re-unite of one set reported a link")
	}
	for _, x := range []uint64{3, big + 5, big + 9} {
		if r := u.Find(x); r != 3 {
			t.Fatalf("Find(%d) = %d, want the set minimum 3", x, r)
		}
	}
	if r := u.Find(42); r != 42 {
		t.Fatalf("untouched label root = %d, want itself", r)
	}
	if u.Len() == 0 {
		t.Fatalf("merge state empty after links")
	}
}
