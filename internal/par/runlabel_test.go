package par

import (
	"context"
	"fmt"
	"testing"

	"parimg/internal/image"
	"parimg/internal/seq"
)

// TestGreyRunsMatchesBFS proves the grey run engine behaviorally: touching
// bars of different colors are one binary component but two grey
// components, so correct grey output requires the run table to carry grey
// values through the vertical unites — and the result must still be the
// exact grey BFS labeling.
func TestGreyRunsMatchesBFS(t *testing.T) {
	// Two touching bars of different colors: one binary component but two
	// grey components.
	im := image.New(8)
	for i := 0; i < 8; i++ {
		im.Set(i, 2, 1)
		im.Set(i, 3, 2)
	}
	got := label(t, NewEngine(3), im, image.Conn8, seq.Grey)
	want := seq.LabelBFS(im, image.Conn8, seq.Grey)
	requireIdentical(t, got, want, "grey runs")
	if c := got.Components(); c != 2 {
		t.Fatalf("grey labeling found %d components, want 2", c)
	}
}

// TestGreyRunsMatchesSequentialDARPA checks the grey run engine on the
// DARPA benchmark scene — the paper's flagship grey workload and the
// acceptance case for retiring the BFS fallback — in both
// connectivities, several worker counts, exact array compare.
func TestGreyRunsMatchesSequentialDARPA(t *testing.T) {
	im := image.DARPASynthetic()
	for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
		want := seq.LabelBFS(im, conn, seq.Grey)
		for _, w := range []int{1, 3, 8} {
			e := NewEngine(w)
			got := label(t, e, im, conn, seq.Grey)
			requireIdentical(t, got, want, fmt.Sprintf("grey runs darpa/%v/workers=%d", conn, w))
		}
	}
}

// TestGreyRunsMatchesSequentialRandom sweeps the grey run engine across
// random grey images — odd sides, several grey-level counts (including
// k=2, the densest unite case), worker counts spanning the strip-boundary
// cases — against the sequential grey BFS, exact.
func TestGreyRunsMatchesSequentialRandom(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 64, 65, 127} {
		for _, k := range []int{2, 8, 256} {
			im := image.RandomGrey(n, k, uint64(n*k))
			want := seq.LabelBFS(im, image.Conn8, seq.Grey)
			for _, w := range workerCounts {
				e := NewEngine(w)
				got := label(t, e, im, image.Conn8, seq.Grey)
				requireIdentical(t, got, want,
					fmt.Sprintf("grey runs n=%d k=%d workers=%d", n, k, w))
			}
		}
	}
}

// TestGreyRunsWideLevels covers the full-width fallback inside the grey
// run path: grey levels above 255 cannot be packed into the byte plane
// (they would truncate and alias), so those strips extract runs from the
// raw uint32 pixels. Values are chosen to collide modulo 256, which would
// merge distinct components if the packed bytes were trusted.
func TestGreyRunsWideLevels(t *testing.T) {
	im := image.New(16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 8; j++ {
			im.Set(i, j, 7)
		}
		for j := 8; j < 16; j++ {
			im.Set(i, j, 7+256) // same low byte as 7, different grey level
		}
	}
	for _, w := range []int{1, 4} {
		e := NewEngine(w)
		got := label(t, e, im, image.Conn8, seq.Grey)
		want := seq.LabelBFS(im, image.Conn8, seq.Grey)
		requireIdentical(t, got, want, fmt.Sprintf("wide grey workers=%d", w))
		if c := got.Components(); c != 2 {
			t.Fatalf("wide grey labeling found %d components, want 2", c)
		}
	}
}

// TestRunEngineReuseAndInto runs one engine across sizes and dirty
// outputs to prove the run scratch (bitplane, run table, run union-find)
// resets correctly between calls.
func TestRunEngineReuseAndInto(t *testing.T) {
	e := NewEngine(4)
	for i, n := range []int{64, 32, 65, 16, 64} {
		im := image.RandomBinary(n, 0.5, uint64(i+1))
		want := seq.LabelBFS(im, image.Conn8, seq.Binary)
		got := label(t, e, im, image.Conn8, seq.Binary)
		requireIdentical(t, got, want, fmt.Sprintf("runs reuse case %d", i))

		out := image.NewLabels(n)
		for j := range out.Lab {
			out.Lab[j] = 12345
		}
		comps := labelInto(t, e, im, image.Conn8, seq.Binary, out)
		requireIdentical(t, out, want, fmt.Sprintf("runs reuse into case %d", i))
		if wc := want.Components(); comps != wc {
			t.Fatalf("case %d: components = %d, want %d", i, comps, wc)
		}
	}
}

// TestLabelContextPooled exercises the pooled package-level entry point:
// with no context, and with a live one and connectivity 0, which selects
// the Conn8 default.
func TestLabelContextPooled(t *testing.T) {
	im := image.Generate(image.DualSpiral, 96)
	want := seq.LabelBFS(im, image.Conn8, seq.Binary)
	got, err := LabelContext(nil, im, image.Conn8, seq.Binary)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, "pooled, no context")
	got, err = LabelContext(context.Background(), im, 0, seq.Binary)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, "pooled, with context, conn 0")
}
