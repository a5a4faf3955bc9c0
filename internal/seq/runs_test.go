package seq

import (
	"fmt"
	"testing"

	"parimg/internal/image"
)

// LabelRuns labels a whole binary image with the run-based two-pass
// algorithm: the sequential run-based baseline the tests compare against
// LabelBFS (pixel for pixel identical in Binary mode).
func LabelRuns(im *image.Image, conn image.Connectivity) *image.Labels {
	bp := image.NewBitplane(im)
	out := image.NewLabels(im.N)
	var rl RunLabeler
	rl.LabelStrip(bp, 0, im.N, conn, false, out.Lab)
	return out
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

// TestAppendRunsMatchesPixelScan checks word-at-a-time extraction against
// the per-pixel reference on random rows, with widths straddling word
// boundaries (including runs that cross words and runs ending at bit 63).
func TestAppendRunsMatchesPixelScan(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 128, 200, 256} {
		for seed := uint64(0); seed < 8; seed++ {
			im := image.RandomBinary(n, 0.3+0.05*float64(seed), seed+1)
			bp := image.NewBitplane(im)
			for i := 0; i < n; i++ {
				got := AppendRuns(bp.Row(i), nil)
				want := runsOfRow(im.Pix[i*n : (i+1)*n])
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
	bp := image.NewBitplane(im)
	got := AppendRuns(bp.Row(0), nil)
	want := []int32{10, 150, 160, 192}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("runs = %v, want %v", got, want)
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

// TestRunLabelerStripComponents checks the strip component count against
// the BFS labeler over single-strip images.
func TestRunLabelerStripComponents(t *testing.T) {
	for _, n := range []int{8, 33, 64} {
		im := image.RandomBinary(n, 0.5, uint64(n))
		bp := image.NewBitplane(im)
		out := image.NewLabels(n)
		var rl RunLabeler
		comps := rl.LabelStrip(bp, 0, n, image.Conn8, true, out.Lab)
		want := LabelBFS(im, image.Conn8, Binary)
		if wc := want.Components(); comps != wc {
			t.Fatalf("n=%d: %d components, want %d", n, comps, wc)
		}
	}
}

// TestRunLabelerClearPaintsGaps checks that clear=true zeroes stale
// background without a separate clear pass.
func TestRunLabelerClearPaintsGaps(t *testing.T) {
	im := image.RandomBinary(40, 0.5, 11)
	bp := image.NewBitplane(im)
	out := image.NewLabels(40)
	for i := range out.Lab {
		out.Lab[i] = 0xdeadbeef
	}
	var rl RunLabeler
	rl.LabelStrip(bp, 0, 40, image.Conn4, true, out.Lab)
	want := LabelBFS(im, image.Conn4, Binary)
	for i := range want.Lab {
		if out.Lab[i] != want.Lab[i] {
			t.Fatalf("pixel %d: got %d, want %d", i, out.Lab[i], want.Lab[i])
		}
	}
}

func BenchmarkLabelRuns(b *testing.B) {
	for _, n := range []int{512, 1024} {
		im := image.Generate(image.DualSpiral, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			bp := image.NewBitplane(im)
			out := image.NewLabels(n)
			var rl RunLabeler
			b.SetBytes(int64(n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rl.LabelStrip(bp, 0, n, image.Conn8, true, out.Lab)
			}
		})
	}
}
