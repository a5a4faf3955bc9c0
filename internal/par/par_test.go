package par

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"parimg/internal/image"
	"parimg/internal/seq"
)

// workerCounts exercises one worker, even and odd row-range splits, one
// row per worker on the 64-row catalog images, and more workers than
// image rows.
var workerCounts = []int{1, 2, 3, 4, 7, 64, 65}

// label labels im into a fresh labeling on e, failing the test on error.
func label(t testing.TB, e *Engine, im *image.Image, conn image.Connectivity, mode seq.Mode) *image.Labels {
	t.Helper()
	out := image.NewLabels(im.N)
	labelInto(t, e, im, conn, mode, out)
	return out
}

// labelInto labels im into out on e and returns the component count,
// failing the test on error.
func labelInto(t testing.TB, e *Engine, im *image.Image, conn image.Connectivity, mode seq.Mode,
	out *image.Labels) int {
	t.Helper()
	comps, err := e.LabelIntoContext(nil, im, conn, mode, out)
	if err != nil {
		t.Fatal(err)
	}
	return comps
}

// labelCtx labels the well-formed im into a fresh labeling on e under ctx,
// returning the run error instead of failing.
func labelCtx(ctx context.Context, e *Engine, im *image.Image, conn image.Connectivity,
	mode seq.Mode) (*image.Labels, error) {
	out := image.NewLabels(im.N)
	if _, err := e.LabelIntoContext(ctx, im, conn, mode, out); err != nil {
		return nil, err
	}
	return out, nil
}

// histogram tallies im's k-bucket histogram on e under ctx.
func histogram(ctx context.Context, e *Engine, im *image.Image, k int) ([]int64, error) {
	h := make([]int64, k)
	if err := e.HistogramIntoContext(ctx, im, h); err != nil {
		return nil, err
	}
	return h, nil
}

func requireIdentical(t *testing.T, got, want *image.Labels, ctx string) {
	t.Helper()
	for i := range want.Lab {
		if got.Lab[i] != want.Lab[i] {
			t.Fatalf("%s: label mismatch at pixel %d: got %d, want %d",
				ctx, i, got.Lab[i], want.Lab[i])
		}
	}
}

// TestLabelMatchesSequentialCatalog is the pixel-identity pin: every
// connectivity x mode x worker split must reproduce seq.LabelBFS exactly
// on the nine Figure 1 patterns.
func TestLabelMatchesSequentialCatalog(t *testing.T) {
	for _, id := range image.AllPatterns() {
		im := image.Generate(id, 64)
		for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
			for _, mode := range []seq.Mode{seq.Binary, seq.Grey} {
				want := seq.LabelBFS(im, conn, mode)
				for _, w := range workerCounts {
					e := NewEngine(w)
					got := label(t, e, im, conn, mode)
					requireIdentical(t, got, want,
						fmt.Sprintf("%v/%v/%v/workers=%d", id, conn, mode, w))
				}
			}
		}
	}
}

// TestLabelMatchesSequentialDARPA checks the engine on the grey-scale
// benchmark scene in both modes and connectivities at every worker count.
func TestLabelMatchesSequentialDARPA(t *testing.T) {
	im := image.DARPASynthetic()
	for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
		for _, mode := range []seq.Mode{seq.Binary, seq.Grey} {
			want := seq.LabelBFS(im, conn, mode)
			for _, w := range workerCounts {
				got := label(t, NewEngine(w), im, conn, mode)
				requireIdentical(t, got, want, fmt.Sprintf("darpa/%v/%v/workers=%d", conn, mode, w))
			}
		}
	}
}

// TestLabelRandomAndTiny sweeps random images, including sides smaller than
// the worker count and a 1x1 image.
func TestLabelRandomAndTiny(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 33, 128} {
		for _, density := range []float64{0.2, 0.5, 0.8} {
			im := image.RandomBinary(n, density, uint64(n*100)+uint64(density*10))
			want := seq.LabelBFS(im, image.Conn8, seq.Binary)
			for _, w := range workerCounts {
				got := label(t, NewEngine(w), im, image.Conn8, seq.Binary)
				requireIdentical(t, got, want, fmt.Sprintf("n=%d/d=%g/w=%d", n, density, w))
			}
		}
	}
}

// TestEngineReuse runs one engine across differing sizes and modes to prove
// the scratch (planes, run table, run union-find) resets correctly.
func TestEngineReuse(t *testing.T) {
	e := NewEngine(4)
	cases := []struct {
		n    int
		mode seq.Mode
	}{{64, seq.Binary}, {32, seq.Grey}, {64, seq.Grey}, {16, seq.Binary}, {64, seq.Binary}}
	for i, c := range cases {
		im := image.RandomGrey(c.n, 8, uint64(i+1))
		want := seq.LabelBFS(im, image.Conn8, c.mode)
		got := label(t, e, im, image.Conn8, c.mode)
		requireIdentical(t, got, want, fmt.Sprintf("reuse case %d", i))

		// LabelIntoContext on a dirty output must clear it and report the
		// component count.
		out := image.NewLabels(c.n)
		for j := range out.Lab {
			out.Lab[j] = 12345
		}
		comps := labelInto(t, e, im, image.Conn8, c.mode, out)
		requireIdentical(t, out, want, fmt.Sprintf("reuse into case %d", i))
		if comps != want.Components() {
			t.Fatalf("case %d: components = %d, want %d", i, comps, want.Components())
		}
	}
}

// TestLabelConcurrent labels from many goroutines at once through the
// pooled package API; run under -race this is the engine's data-race proof.
func TestLabelConcurrent(t *testing.T) {
	ims := []*image.Image{
		image.Generate(image.DualSpiral, 64),
		image.Generate(image.ConcentricCircles, 64),
		image.RandomBinary(96, 0.55, 7),
	}
	wants := make([]*image.Labels, len(ims))
	for i, im := range ims {
		wants[i] = seq.LabelBFS(im, image.Conn8, seq.Binary)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				i := (g + iter) % len(ims)
				got, err := LabelContext(nil, ims[i], image.Conn8, seq.Binary)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				for j := range wants[i].Lab {
					if got.Lab[j] != wants[i].Lab[j] {
						t.Errorf("goroutine %d: mismatch at %d", g, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHistogramMatchesSequential checks sharded+tree-merged histograms
// against the host baseline, at several worker counts and bucket counts.
func TestHistogramMatchesSequential(t *testing.T) {
	for _, n := range []int{1, 16, 64, 100} {
		for _, k := range []int{2, 16, 256} {
			im := image.RandomGrey(n, k, uint64(n*k))
			want, err := im.Histogram(k)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				got, err := histogram(nil, NewEngine(w), im, k)
				if err != nil {
					t.Fatalf("n=%d k=%d w=%d: %v", n, k, w, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d k=%d w=%d: H[%d]=%d, want %d",
							n, k, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestHistogramOutOfRange checks that out-of-range grey levels error rather
// than corrupt the tally.
func TestHistogramOutOfRange(t *testing.T) {
	im := image.New(8)
	im.Set(3, 3, 9)
	if _, err := histogram(nil, NewEngine(4), im, 8); err == nil {
		t.Fatal("want error for grey level 9 with k=8")
	}
	if _, err := histogram(nil, NewEngine(4), im, 16); err != nil {
		t.Fatalf("k=16: %v", err)
	}
}

// TestHistogramConcurrent exercises the pooled package API under -race.
func TestHistogramConcurrent(t *testing.T) {
	im := image.RandomGrey(128, 64, 3)
	want, err := im.Histogram(64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := HistogramContext(nil, im, 64)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("H[%d]=%d, want %d", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
