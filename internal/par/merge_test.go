package par

import (
	"fmt"
	"testing"

	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// TestMergeBackendsMatchSequentialCatalog is the pixel-identity pin of the
// border merge: every connectivity x mode x worker split must reproduce
// seq.LabelBFS exactly on the nine Figure 1 patterns.
func TestMergeBackendsMatchSequentialCatalog(t *testing.T) {
	for _, id := range image.AllPatterns() {
		im := image.Generate(id, 64)
		for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
			for _, mode := range []seq.Mode{seq.Binary, seq.Grey} {
				want := seq.LabelBFS(im, conn, mode)
				for _, w := range []int{2, 3, 7, 64} {
					got := label(t, NewEngine(w), im, conn, mode)
					requireIdentical(t, got, want, fmt.Sprintf(
						"%v/%v/%v/w=%d", id, conn, mode, w))
				}
			}
		}
	}
}

// TestMergeBackendsDARPA pins the border merge on the grey benchmark scene
// in both modes.
func TestMergeBackendsDARPA(t *testing.T) {
	im := image.DARPASynthetic()
	for _, mode := range []seq.Mode{seq.Binary, seq.Grey} {
		want := seq.LabelBFS(im, image.Conn8, mode)
		got := label(t, NewEngine(4), im, image.Conn8, mode)
		requireIdentical(t, got, want, fmt.Sprintf("darpa/%v", mode))
	}
}

// stripedImage returns an n x n binary image of single-pixel vertical
// columns — the densest possible strip boundary: every other boundary
// pixel starts a cross-boundary edge.
func stripedImage(n int) *image.Image {
	im := image.New(n)
	for i := 0; i < n; i++ {
		for j := 1; j < n; j += 2 {
			im.Pix[i*n+j] = 1
		}
	}
	return im
}

// TestMergeCountersAndCleanup pins the border merge's accounting and its
// cleanup contract on the densest boundary: the component count equals
// strip components minus links, pairs >= edges > 0, and after the run the
// union-find is back in its all-zero ready state (the per-worker edge slabs
// double as the dirty lists, so every linked or path-halved entry must be
// covered).
func TestMergeCountersAndCleanup(t *testing.T) {
	im := stripedImage(96)
	want := seq.LabelBFS(im, image.Conn8, seq.Binary)
	e := NewEngine(5)
	rec := obs.NewRecorder()
	e.SetObserver(rec)
	out := image.NewLabels(im.N)
	comps := labelInto(t, e, im, image.Conn8, seq.Binary, out)
	requireIdentical(t, out, want, "striped")
	if got := int(rec.Counter(obs.CtrStripComponents) - rec.Counter(obs.CtrBorderLinks)); got != comps {
		t.Errorf("strip_components - border_links = %d, want %d", got, comps)
	}
	if rec.Counter(obs.CtrBorderEdges) == 0 || rec.Counter(obs.CtrBorderPairs) < rec.Counter(obs.CtrBorderEdges) {
		t.Errorf("pairs %d, edges %d — want pairs >= edges > 0",
			rec.Counter(obs.CtrBorderPairs), rec.Counter(obs.CtrBorderEdges))
	}
	for i, p := range e.uf.parent {
		if p != 0 {
			t.Fatalf("union-find entry %d = %d after the run, want the all-zero ready state", i, p)
		}
	}
}
