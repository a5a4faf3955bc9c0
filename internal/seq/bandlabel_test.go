package seq

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"parimg/internal/fault/leakcheck"
	"parimg/internal/image"
)

// bandCase is one rows x cols band window for the paint-free sweep.
type bandCase struct {
	name       string
	pix        []uint32
	rows, cols int
	mode       Mode
}

// bandCases cuts rectangular bands from the top of catalog patterns,
// random binary and grey images, a grey image with levels above a byte
// (the full-width extraction path) and one with a single such row (so
// only some sub-slabs take that path), single rows, all-background and
// all-foreground windows, and a snake that crosses every row boundary.
func bandCases() []bandCase {
	var cs []bandCase
	add := func(name string, im *image.Image, rows int, mode Mode) {
		cs = append(cs, bandCase{name, im.Pix[:rows*im.N], rows, im.N, mode})
	}
	for _, id := range image.AllPatterns() {
		add(id.String(), image.Generate(id, 48), 17, Binary)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		add(fmt.Sprintf("random-binary-%d", seed), image.RandomBinary(70, 0.45, seed), 23, Binary)
		add(fmt.Sprintf("random-grey-%d", seed), image.RandomGrey(70, 4, seed), 23, Grey)
	}
	wide := image.RandomGrey(40, 3, 9)
	for i := range wide.Pix {
		wide.Pix[i] *= 100 // levels 100, 200, 300: one exceeds a byte
	}
	add("wide-grey", wide, 13, Grey)
	add("one-row-binary", image.RandomBinary(90, 0.5, 4), 1, Binary)
	add("one-row-grey", image.RandomGrey(90, 3, 4), 1, Grey)
	hot := image.RandomGrey(40, 3, 10)
	hot.Pix[20*40+7] = 300 // row 20 alone exceeds a byte
	add("one-wide-row-grey", hot, 40, Grey)
	add("all-background-binary", image.New(33), 9, Binary)
	add("all-background-grey", image.New(33), 9, Grey)
	full := image.New(33)
	for i := range full.Pix {
		full.Pix[i] = 7
	}
	add("all-foreground-binary", full, 9, Binary)
	add("all-foreground-grey", full, 9, Grey)
	for _, v := range []uint32{1, 300} {
		add(fmt.Sprintf("snake-%d-binary", v), snake(31, v), 31, Binary)
		add(fmt.Sprintf("snake-%d-grey", v), snake(31, v), 31, Grey)
	}
	return cs
}

// snake returns an n x n image whose foreground, all of level v, is one
// boustrophedon path: full even rows joined by one pixel at alternating
// ends of the odd rows. Its single component crosses every row boundary,
// so every sub-slab seam, and under Conn4 only the seam unites join it.
func snake(n int, v uint32) *image.Image {
	im := image.New(n)
	for i := 0; i < n; i++ {
		switch {
		case i%2 == 0:
			for j := 0; j < n; j++ {
				im.Pix[i*n+j] = v
			}
		case i%4 == 1:
			im.Pix[i*n+n-1] = v
		default:
			im.Pix[i*n] = v
		}
	}
	return im
}

// workerCounts is the sub-slab sweep for a band of the given height: one
// (the serial reference), a few small counts, one row per sub-slab, and
// more workers than rows.
func workerCounts(rows int) []int { return []int{1, 2, 3, 7, rows, rows + 5} }

// TestBandResolveMatchesPaint checks the paint-free band resolve against
// the painted BandLabeler.Label and against a BFS labeling of the band with
// the same band-local seeds: flat per-run roots, per-run seeds, the root
// count, per-root component sizes, the foreground total, and every row
// painted by PaintRow. It does so at every worker count of the sub-slab
// sweep, and demands the run table, offsets, roots, seeds and sizes of
// each be bit-identical to the one-worker resolve. One labeler of each kind serves the whole sweep,
// so scratch reuse across bands of different shapes and worker counts is
// covered too.
func TestBandResolveMatchesPaint(t *testing.T) {
	var bl, painted, serial BandLabeler
	var sizes, serialSizes []uint32
	for _, c := range bandCases() {
		for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
			n := c.rows * c.cols
			want := make([]uint32, n)
			wantComps, _ := TileLabeler(c.pix, c.rows, c.cols, conn, c.mode,
				func(i, j int) uint32 { return uint32(i*c.cols+j) + 1 }, want, nil)
			wantSize := map[uint32]uint32{}
			wantFg := 0
			for _, l := range want {
				if l != 0 {
					wantSize[l]++
					wantFg++
				}
			}
			serial.Resolve(c.pix, c.rows, c.cols, conn, c.mode)
			serialSizes = serial.ComponentSizes(serialSizes)

			for _, w := range workerCounts(c.rows) {
				name := fmt.Sprintf("%s/%v/w%d", c.name, conn, w)
				painted.SetWorkers(w)
				bl.SetWorkers(w)

				lab := make([]uint32, n)
				for i := range lab {
					lab[i] = 0xdead // Label must clear background itself
				}
				if comps := painted.Label(c.pix, c.rows, c.cols, conn, c.mode, lab); comps != wantComps {
					t.Errorf("%s: Label found %d components, BFS %d", name, comps, wantComps)
				}
				if !slices.Equal(lab, want) {
					t.Errorf("%s: Label's plane differs from BFS", name)
				}

				if comps := bl.Resolve(c.pix, c.rows, c.cols, conn, c.mode); comps != wantComps {
					t.Errorf("%s: Resolve found %d components, BFS %d", name, comps, wantComps)
				}
				if fg := bl.Foreground(); fg != wantFg {
					t.Errorf("%s: Foreground %d, BFS %d", name, fg, wantFg)
				}
				runs, roots, seeds, off := bl.Runs(), bl.Roots(), bl.Seeds(), bl.RowOffsets()
				sizes = bl.ComponentSizes(sizes)
				if !slices.Equal(runs, serial.Runs()) || !slices.Equal(off, serial.RowOffsets()) ||
					!slices.Equal(roots, serial.Roots()) || !slices.Equal(seeds, serial.Seeds()) ||
					!slices.Equal(sizes, serialSizes) {
					t.Fatalf("%s: run table, offsets, roots, seeds or sizes differ from one worker's", name)
				}
				if len(roots) != len(runs)/2 || len(seeds) != len(roots) || len(sizes) != len(roots) {
					t.Fatalf("%s: %d runs but %d roots, %d seeds, %d sizes",
						name, len(runs)/2, len(roots), len(seeds), len(sizes))
				}
				nroots := 0
				for k, r := range roots {
					if int(r) > k || roots[r] != r {
						t.Fatalf("%s: run %d has root %d, not a flat root at or before it", name, k, r)
					}
					if int(r) == k {
						nroots++
						if sizes[k] != wantSize[seeds[k]] {
							t.Errorf("%s: root run %d (label %d) has size %d, BFS %d",
								name, k, seeds[k], sizes[k], wantSize[seeds[k]])
						}
					}
				}
				if nroots != wantComps {
					t.Errorf("%s: %d root runs, BFS %d components", name, nroots, wantComps)
				}

				row := make([]uint32, c.cols)
				for i := 0; i < c.rows; i++ {
					for k := off[i] / 2; k < off[i+1]/2; k++ {
						first := i*c.cols + int(runs[2*k])
						if seeds[k] != uint32(first)+1 {
							t.Fatalf("%s: run %d seed %d, want %d", name, k, seeds[k], first+1)
						}
						if seeds[roots[k]] != want[first] {
							t.Fatalf("%s: run %d labeled %d by its root, BFS %d", name, k, seeds[roots[k]], want[first])
						}
					}
					for j := range row {
						row[j] = 0xdead
					}
					bl.PaintRow(i, row)
					if !slices.Equal(row, want[i*c.cols:(i+1)*c.cols]) {
						t.Fatalf("%s: PaintRow(%d) differs from BFS", name, i)
					}
				}
			}
		}
	}
}

// TestBandResolveSteadyStateAllocs pins the per-band work of the
// streaming census — resolve, paint the two seam rows, fold component
// sizes — at zero allocations once the labeler's scratch has grown to the
// band, for both modes, on one worker. On two workers the sub-slab
// goroutines cost a few allocations per band, and that count must not
// grow with the band: it is the same for a 64-row and a 512-row band.
func TestBandResolveSteadyStateAllocs(t *testing.T) {
	const cols = 128
	for _, c := range []struct {
		mode Mode
		im   *image.Image
	}{
		{Binary, image.RandomBinary(512, 0.45, 5)}, // 2048 rows of 128 columns
		{Grey, image.RandomGrey(512, 4, 5)},
	} {
		for _, w := range []int{1, 2} {
			perBand := map[int]float64{}
			for _, rows := range []int{64, 512} {
				var bl BandLabeler
				bl.SetWorkers(w)
				row := make([]uint32, cols)
				var sizes []uint32
				band := 0
				step := func() {
					// Alternate between two bands, as a band loop would.
					pix := c.im.Pix[band*rows*cols : (band+1)*rows*cols]
					band ^= 1
					bl.Resolve(pix, rows, cols, image.Conn8, c.mode)
					bl.PaintRow(0, row)
					bl.PaintRow(rows-1, row)
					sizes = bl.ComponentSizes(sizes)
				}
				for i := 0; i < 4; i++ {
					step() // grow scratch to the larger band
				}
				perBand[rows] = testing.AllocsPerRun(20, step)
			}
			switch a64, a512 := perBand[64], perBand[512]; {
			case w == 1 && (a64 != 0 || a512 != 0):
				t.Errorf("%v: %v and %v allocs per 64- and 512-row band on one worker, want 0", c.mode, a64, a512)
			case a64 != a512 || a64 > 8:
				t.Errorf("%v: %v and %v allocs per 64- and 512-row band on %d workers, want the same few",
					c.mode, a64, a512, w)
			}
		}
	}
}

// TestBandResolveStopsMidResolve raises the stop flag while four
// sub-slab workers are labeling, at shrinking delays until it lands inside
// the call: a cut call returns 0 and paints nothing, a call that finished
// first is complete and exact, no worker outlives the call, and the
// labeler labels correctly once the flag is lowered.
func TestBandResolveStopsMidResolve(t *testing.T) {
	leakcheck.Check(t)
	im := image.RandomBinary(1024, 0.45, 11)
	n := im.N
	var serial BandLabeler
	want := make([]uint32, n*n)
	wantComps := serial.Label(im.Pix, n, n, image.Conn8, Binary, want)

	var stop atomic.Bool
	var bl BandLabeler
	bl.SetStop(&stop)
	bl.SetWorkers(4)
	lab := make([]uint32, n*n)
	label := func() int {
		for i := range lab {
			lab[i] = 0xdead
		}
		return bl.Label(im.Pix, n, n, image.Conn8, Binary, lab)
	}
	unpainted := func() bool {
		for _, v := range lab {
			if v != 0xdead {
				return false
			}
		}
		return true
	}

	stop.Store(true)
	if c := label(); c != 0 || !unpainted() {
		t.Fatalf("pre-raised stop: %d components, painted %v; want 0, nothing", c, !unpainted())
	}
	cut := false
	for delay := 2 * time.Millisecond; !cut && delay > 0; delay /= 2 {
		stop.Store(false)
		timer := time.AfterFunc(delay, func() { stop.Store(true) })
		c := label()
		timer.Stop()
		switch {
		case c == 0:
			cut = true
			if !unpainted() || bl.Foreground() != 0 {
				t.Fatalf("delay %v: a cut Resolve painted the plane or reported %d foreground pixels",
					delay, bl.Foreground())
			}
		case c != wantComps || !slices.Equal(lab, want):
			t.Fatalf("delay %v: an uncut Resolve found %d components (want %d) or painted wrong labels",
				delay, c, wantComps)
		}
	}
	if !cut {
		t.Fatal("the stop flag never landed inside a Resolve")
	}
	stop.Store(false)
	if c := label(); c != wantComps || !slices.Equal(lab, want) {
		t.Fatalf("after a cut: %d components, want %d, or wrong labels", c, wantComps)
	}
}

// TestBandResolveWorkerPanicReraised feeds four workers a pixel buffer a
// quarter short, so the last sub-slab's worker panics: the panic must
// come back on the calling goroutine once every worker has returned, and
// the labeler must label correctly afterwards.
func TestBandResolveWorkerPanicReraised(t *testing.T) {
	leakcheck.Check(t)
	im := image.RandomBinary(256, 0.45, 12)
	n := im.N
	var bl BandLabeler
	bl.SetWorkers(4)
	func() {
		defer func() {
			if _, ok := recover().(runtime.Error); !ok {
				t.Fatal("want the worker's runtime error re-raised on the caller")
			}
		}()
		short := n * n * 3 / 4
		bl.Resolve(im.Pix[:short:short], n, n, image.Conn8, Binary)
	}()
	var serial BandLabeler
	if got, want := bl.Resolve(im.Pix, n, n, image.Conn8, Binary),
		serial.Resolve(im.Pix, n, n, image.Conn8, Binary); got != want ||
		!slices.Equal(bl.Roots(), serial.Roots()) {
		t.Fatalf("after a worker panic: %d components, want %d, or different roots", got, want)
	}
}
