package seq

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"parimg/internal/image"
)

// LabelRuns labels a whole binary image with the run-based two-pass
// algorithm: the sequential run-based baseline the tests compare against
// LabelBFS (pixel for pixel identical in Binary mode).
func LabelRuns(im *image.Image, conn image.Connectivity) *image.Labels {
	out := image.NewLabels(im.N)
	var bl BandLabeler
	bl.Label(im.Pix, im.N, im.N, conn, Binary, out.Lab)
	return out
}

// packBits packs the whole of im into a fresh bit plane.
func packBits(im *image.Image) *image.Bitplane {
	var bp image.Bitplane
	bp.ResetRect(im.N, im.N)
	bp.SetRowsPix(im.Pix, 0, im.N)
	return &bp
}

// runsOfRow extracts one row's runs the slow way, pixel by pixel.
func runsOfRow(row []uint32) []int32 {
	var out []int32
	in := false
	for j, v := range row {
		if v != 0 && !in {
			out = append(out, int32(j))
			in = true
		}
		if v == 0 && in {
			out = append(out, int32(j))
			in = false
		}
	}
	if in {
		out = append(out, int32(len(row)))
	}
	return out
}

// TestAppendRunsMatchesPixelScan checks word-at-a-time extraction, and the
// run count that sizes it, against the per-pixel reference on random rows,
// with widths straddling word boundaries (including runs that cross words
// and runs ending at bit 63).
func TestAppendRunsMatchesPixelScan(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 128, 200, 256} {
		for seed := uint64(0); seed < 8; seed++ {
			im := image.RandomBinary(n, 0.3+0.05*float64(seed), seed+1)
			bp := packBits(im)
			for i := 0; i < n; i++ {
				got := AppendRuns(bp.Row(i), nil)
				want := runsOfRow(im.Pix[i*n : (i+1)*n])
				if c := countRuns(bp.Row(i)); 2*c != len(want) {
					t.Fatalf("n=%d seed=%d row %d: counted %d runs, want %d", n, seed, i, c, len(want)/2)
				}
				if len(got) != len(want) {
					t.Fatalf("n=%d seed=%d row %d: %v runs, want %v", n, seed, i, got, want)
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("n=%d seed=%d row %d: runs %v, want %v", n, seed, i, got, want)
					}
				}
			}
		}
	}
}

// TestAppendRunsWordSpanning pins the cross-word cases: a run covering
// several whole words, runs meeting word boundaries exactly, and an
// all-foreground row.
func TestAppendRunsWordSpanning(t *testing.T) {
	n := 192
	im := image.New(n)
	set := func(j0, j1 int) {
		for j := j0; j < j1; j++ {
			im.Set(0, j, 1)
		}
	}
	set(10, 150) // spans words 0,1,2
	set(160, 192)
	bp := packBits(im)
	got := AppendRuns(bp.Row(0), nil)
	want := []int32{10, 150, 160, 192}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("runs = %v, want %v", got, want)
	}
	if c := countRuns(bp.Row(0)); c != 2 {
		t.Fatalf("counted %d runs, want 2", c)
	}
}

// TestFill32 checks the doubling fill across the short-loop/copy cutover.
func TestFill32(t *testing.T) {
	for _, n := range []int{0, 1, 5, 31, 32, 33, 100, 1000} {
		s := make([]uint32, n)
		Fill32(s, 7)
		for i, v := range s {
			if v != 7 {
				t.Fatalf("len=%d: s[%d]=%d", n, i, v)
			}
		}
	}
}

// TestLabelRunsMatchesBFSCatalog checks the sequential run-based labeler
// against LabelBFS on the nine patterns, exactly, both connectivities.
func TestLabelRunsMatchesBFSCatalog(t *testing.T) {
	for _, id := range image.AllPatterns() {
		im := image.Generate(id, 64)
		for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
			want := LabelBFS(im, conn, Binary)
			got := LabelRuns(im, conn)
			for i := range want.Lab {
				if got.Lab[i] != want.Lab[i] {
					t.Fatalf("%v/%v: pixel %d: got %d, want %d",
						id, conn, i, got.Lab[i], want.Lab[i])
				}
			}
		}
	}
}

// TestLabelRunsRandom sweeps random densities and odd sizes, exactly.
func TestLabelRunsRandom(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 64, 65, 127} {
		for _, density := range []float64{0.1, 0.5, 0.9} {
			im := image.RandomBinary(n, density, uint64(n)+uint64(100*density))
			for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
				want := LabelBFS(im, conn, Binary)
				got := LabelRuns(im, conn)
				for i := range want.Lab {
					if got.Lab[i] != want.Lab[i] {
						t.Fatalf("n=%d d=%g %v: pixel %d: got %d, want %d",
							n, density, conn, i, got.Lab[i], want.Lab[i])
					}
				}
			}
		}
	}
}

// TestBandLabelerStripComponents checks the slab component count against
// the BFS labeler over single-slab images.
func TestBandLabelerStripComponents(t *testing.T) {
	for _, n := range []int{8, 33, 64} {
		im := image.RandomBinary(n, 0.5, uint64(n))
		out := image.NewLabels(n)
		var bl BandLabeler
		comps := bl.Label(im.Pix, n, n, image.Conn8, Binary, out.Lab)
		want := LabelBFS(im, image.Conn8, Binary)
		if wc := want.Components(); comps != wc {
			t.Fatalf("n=%d: %d components, want %d", n, comps, wc)
		}
	}
}

// TestLabelAtClearsGaps checks that Label zeroes stale background
// without a separate clear pass: a lower strip of an image, labeled as a
// slab of its own, carries the slab-local row-major seeds a BFS of the
// strip assigns, in both modes. (The name predates the lifting LabelAt
// variant, which is gone; it is kept so the test ID stays stable.)
func TestLabelAtClearsGaps(t *testing.T) {
	const n, r0, r1 = 40, 13, 31
	for _, c := range []struct {
		mode Mode
		im   *image.Image
	}{
		{Binary, image.RandomBinary(n, 0.5, 11)},
		{Grey, image.RandomGrey(n, 3, 11)},
	} {
		pix := c.im.Pix[r0*n : r1*n]
		want := make([]uint32, len(pix))
		wantComps, _ := TileLabeler(pix, r1-r0, n, image.Conn4, c.mode,
			func(i, j int) uint32 { return uint32(i*n+j) + 1 }, want, nil)
		lab := make([]uint32, len(pix))
		for i := range lab {
			lab[i] = 0xdeadbeef
		}
		var bl BandLabeler
		if comps := bl.Label(pix, r1-r0, n, image.Conn4, c.mode, lab); comps != wantComps {
			t.Errorf("%v: %d components, want %d", c.mode, comps, wantComps)
		}
		if !slices.Equal(lab, want) {
			t.Errorf("%v: Label plane differs from the BFS labeling of the strip", c.mode)
		}
	}
}

// TestLabelAtStoppedPaintsNothing checks that a scan cut short by the stop
// flag leaves the label plane untouched and reports no components. (The
// name is kept from the gone LabelAt so the test ID stays stable.)
func TestLabelAtStoppedPaintsNothing(t *testing.T) {
	const n = 32
	var stop atomic.Bool
	stop.Store(true)
	for _, mode := range []Mode{Binary, Grey} {
		im := image.RandomGrey(n, 3, 2)
		lab := make([]uint32, n*n)
		for i := range lab {
			lab[i] = 7
		}
		var bl BandLabeler
		bl.SetStop(&stop)
		if comps := bl.Label(im.Pix, n, n, image.Conn8, mode, lab); comps != 0 {
			t.Errorf("%v: stopped Label reported %d components", mode, comps)
		}
		for i, v := range lab {
			if v != 7 {
				t.Fatalf("%v: stopped Label painted pixel %d", mode, i)
			}
		}
	}
}

func BenchmarkLabelRuns(b *testing.B) {
	for _, n := range []int{512, 1024} {
		im := image.Generate(image.DualSpiral, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			out := image.NewLabels(n)
			var bl BandLabeler
			b.SetBytes(int64(n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bl.Label(im.Pix, n, n, image.Conn8, Binary, out.Lab)
			}
		})
	}
}
