package stream

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
		func(i, j int) uint32 { return uint32(i*cols+j) + 1 }, lab, nil)
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

// atProcs runs fn with GOMAXPROCS set to procs — the number of sub-slab
// workers the pipeline's band labeler uses — and restores it after.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestStreamMatchesResident is the pixel-identity sweep: every catalog
// pattern plus binary and grey DARPA scenes, both connectivities, several
// band heights (including one-row bands and bands taller than the image),
// at one and at four band-labeling workers, all compared byte for byte
// against the dense rendering of the resident reference labeling. Each
// run asks for a top-K of 0 (the census-only fast path), 1, 5 or every
// component, and its census must equal the one taken from the resident
// labeling exactly.
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
				for _, procs := range []int{1, 4} {
					for _, topK := range []int{0, 1, 5, comps} {
						name := fmt.Sprintf("%s/conn%d/band%d/procs%d/top%d", in.name, int(conn), bandRows, procs, topK)
						var res *Result
						var got []byte
						atProcs(procs, func() {
							res, got = streamLabel(t, pgm, Options{
								Conn: conn, Mode: in.mode, BandRows: bandRows, TopK: topK,
							})
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
						checkCensus(t, name, res, in.im.Pix, refConn[conn], topK)
					}
				}
			}
		}
	}
}

// checkCensus verifies the foreground count and the top-K list against the
// resident labeling: the exact list of its components by size descending,
// then label ascending, cut to topK.
func checkCensus(t *testing.T, name string, res *Result, pix, lab []uint32, topK int) {
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
	want := make([]Component, 0, len(sizes))
	for l, n := range sizes {
		want = append(want, Component{Label: uint64(l), Size: n})
	}
	slices.SortFunc(want, func(a, b Component) int {
		if a.Size != b.Size {
			return cmp.Compare(b.Size, a.Size)
		}
		return cmp.Compare(a.Label, b.Label)
	})
	want = want[:min(len(want), topK)]
	if !slices.Equal(res.Top, want) {
		t.Errorf("%s: top-%d census %v, want %v", name, topK, res.Top, want)
	}
}

// TestStreamAgreesWithParEngine pins the slab-merge seam from both sides:
// the host-parallel engine and the streaming pipeline must produce the
// same components and the same dense rendering on the same image.
func TestStreamAgreesWithParEngine(t *testing.T) {
	im := image.Generate(image.DualSpiral, 96)
	pgm := encodePGM(im.Pix, im.N, im.N, 255)
	refLab, comps := residentLabels(im.Pix, im.N, im.N, image.Conn8, seq.Binary)
	want := renderDense(refLab, im.N, im.N, comps)
	got := image.NewLabels(im.N)
	if _, err := par.NewEngine(4).LabelIntoContext(nil, im, image.Conn8, seq.Binary, got); err != nil {
		t.Fatal(err)
	}
	if got.Components() != comps {
		t.Errorf("engine found %d components, want %d", got.Components(), comps)
	}
	if pr := renderDense(got.Lab, im.N, im.N, got.Components()); !bytes.Equal(pr, want) {
		t.Errorf("engine rendering differs from resident reference")
	}
	res, streamed := streamLabel(t, pgm, Options{Conn: image.Conn8, BandRows: 17})
	if res.Components != int64(comps) {
		t.Errorf("stream found %d components, want %d", res.Components, comps)
	}
	if !bytes.Equal(streamed, want) {
		t.Errorf("stream rendering differs from resident reference")
	}
}

// TestMergeAdjacentDedupAndLinks pins the per-pixel seam on one
// boundary: a wide overlap of one fragment above and one below emits one
// edge however many pixel pairs it has, Conn8 counts the diagonal pairs
// too, unlike-grey pairs never link, and a second pass over the same
// boundary finds the sets already joined.
func TestMergeAdjacentDedupAndLinks(t *testing.T) {
	const big = uint64(1) << 40
	top := []uint32{1, 1, 1, 1, 0, 2}
	bot := []uint32{1, 1, 1, 1, 0, 3}
	topLab := []uint64{big + 1, big + 1, big + 1, big + 1, 0, big + 6}
	botLab := []uint64{big + 7, big + 7, big + 7, big + 7, 0, big + 12}
	for _, c := range []struct {
		conn  image.Connectivity
		mode  seq.Mode
		pairs int64
		edges int
		links int
	}{
		{image.Conn4, seq.Binary, 5, 2, 2},
		{image.Conn8, seq.Binary, 5 + 6, 2, 2},
		{image.Conn4, seq.Grey, 4, 1, 1},
		{image.Conn8, seq.Grey, 4 + 6, 1, 1},
	} {
		name := fmt.Sprintf("%v/%v", c.conn, c.mode)
		uf := NewUnionFind64()
		edges, pairs, links := MergeAdjacent(uf, top, bot, topLab, botLab, c.conn, c.mode, nil, nil)
		if pairs != c.pairs || len(edges)/2 != c.edges || links != c.links {
			t.Errorf("%s: pairs %d, edges %d, links %d; want %d, %d, %d",
				name, pairs, len(edges)/2, links, c.pairs, c.edges, c.links)
		}
		if r := uf.Find(big + 7); r != big+1 {
			t.Errorf("%s: lower fragment root %d, want the upper seed %d", name, r, big+1)
		}
		if _, _, again := MergeAdjacent(uf, top, bot, topLab, botLab, c.conn, c.mode, nil, edges); again != 0 {
			t.Errorf("%s: second pass over a resolved seam linked %d sets", name, again)
		}
	}
}

// TestStreamSeamCounters pins the band merge's accounting on the densest
// seam, single-pixel vertical columns cut by every band boundary: band
// components minus links is the component count, and pairs >= edges > 0.
func TestStreamSeamCounters(t *testing.T) {
	const n = 96
	im := image.New(n)
	for i := 0; i < n; i++ {
		for j := 1; j < n; j += 2 {
			im.Pix[i*n+j] = 1
		}
	}
	for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
		rec := obs.NewRecorder()
		res, err := Label(bytes.NewReader(encodePGM(im.Pix, n, n, 255)), nil,
			Options{Conn: conn, BandRows: 7, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		if res.Components != n/2 {
			t.Errorf("%v: %d components, want %d", conn, res.Components, n/2)
		}
		if got := rec.Counter(obs.CtrStripComponents) - rec.Counter(obs.CtrBorderLinks); got != res.Components {
			t.Errorf("%v: strip_components - border_links = %d, want %d", conn, got, res.Components)
		}
		pairs, edges := rec.Counter(obs.CtrBorderPairs), rec.Counter(obs.CtrBorderEdges)
		if edges == 0 || pairs < edges {
			t.Errorf("%v: pairs %d, edges %d; want pairs >= edges > 0", conn, pairs, edges)
		}
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
	if u.Len() != 2 {
		t.Fatalf("merge state holds %d entries after 2 links", u.Len())
	}
}

// tallNoise stacks k independent n x n binary noise images into one
// n-column, k*n-row buffer.
func tallNoise(n, k int, density float64) []uint32 {
	pix := make([]uint32, 0, k*n*n)
	for s := 0; s < k; s++ {
		pix = append(pix, image.RandomBinary(n, density, uint64(s+1)).Pix...)
	}
	return pix
}

// TestCensusHoldsOnlySeamFragments pins what the census keeps between
// bands, read back from the final checkpoint record, which holds the
// pipeline's merge state as it stands: the fragment-map keys are exactly
// the lifted labels of the band fragments on a band's first row (below
// another band) or last row (above another band), found by labeling each
// band on its own; the map holds under half as many entries as there are
// band components (on this noise about a seventh under Conn4 and a third
// under Conn8, where components are larger); the forest holds exactly
// one entry per link; and the retired components plus the seam roots are
// the components.
func TestCensusHoldsOnlySeamFragments(t *testing.T) {
	const cols, rows, bandRows = 256, 4096, 32
	pix := tallNoise(cols, rows/cols, 0.43)
	pgm := encodePGM(pix, rows, cols, 255)
	for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
		seam := map[uint64]bool{}
		for r0 := 0; r0 < rows; r0 += bandRows {
			band := pix[r0*cols : (r0+bandRows)*cols]
			lab, _ := residentLabels(band, bandRows, cols, conn, seq.Binary)
			base := uint64(r0) * uint64(cols)
			var seamRows []int
			if r0 > 0 {
				seamRows = append(seamRows, 0)
			}
			if r0+bandRows < rows {
				seamRows = append(seamRows, bandRows-1)
			}
			for _, i := range seamRows {
				for _, l := range lab[i*cols : (i+1)*cols] {
					if l != 0 {
						seam[base+uint64(l)] = true
					}
				}
			}
		}
		for _, procs := range []int{1, 4} {
			name := fmt.Sprintf("%v/procs%d", conn, procs)
			var res *Result
			var c *checkpoint
			atProcs(procs, func() {
				ckpt := filepath.Join(t.TempDir(), "run.ckpt")
				var err error
				res, err = Label(bytes.NewReader(pgm), nil,
					Options{Conn: conn, BandRows: bandRows, Checkpoint: ckpt})
				if err != nil {
					t.Fatal(err)
				}
				if c, err = loadCheckpoint(ckpt); err != nil {
					t.Fatal(err)
				}
			})
			for l := range c.sizes {
				if !seam[l] {
					t.Fatalf("%s: fragment %d is on no band's first or last row", name, l)
				}
			}
			if len(c.sizes) != len(seam) {
				t.Errorf("%s: %d fragments kept, want the %d seam fragments", name, len(c.sizes), len(seam))
			}
			t.Logf("%s: %d seam fragments, %d band components, %d links, %d components",
				name, len(c.sizes), c.stripComps, c.links, res.Components)
			if int64(len(c.sizes))*2 > c.stripComps {
				t.Errorf("%s: %d seam fragments of %d band components, want under half",
					name, len(c.sizes), c.stripComps)
			}
			if int64(len(c.parent)) != c.links || c.links != res.Links {
				t.Errorf("%s: forest holds %d entries, want one per link (%d)", name, len(c.parent), res.Links)
			}
			roots := c.retired
			for l := range c.sizes {
				if _, linked := c.parent[l]; !linked {
					roots++
				}
			}
			if roots != res.Components {
				t.Errorf("%s: %d retired + seam roots, want %d components", name, roots, res.Components)
			}
		}
	}
}
