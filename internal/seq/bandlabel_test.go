package seq

import (
	"fmt"
	"slices"
	"testing"

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
// (the full-width extraction path), single rows and all-background
// windows.
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
	add("all-background-binary", image.New(33), 9, Binary)
	add("all-background-grey", image.New(33), 9, Grey)
	return cs
}

// TestBandResolveMatchesPaint checks the paint-free band resolve against
// the painted BandLabeler.Label and against a BFS labeling of the band with
// the same band-local seeds: flat per-run roots, per-run seeds, the root
// count, per-root component sizes, and every row painted by PaintRow. One
// labeler of each kind serves the whole sweep, so scratch reuse across
// bands of different shapes is covered too.
func TestBandResolveMatchesPaint(t *testing.T) {
	var bl, painted BandLabeler
	var sizes []uint32
	for _, c := range bandCases() {
		for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
			name := fmt.Sprintf("%s/%v", c.name, conn)
			n := c.rows * c.cols
			want := make([]uint32, n)
			wantComps, _ := TileLabeler(c.pix, c.rows, c.cols, conn, c.mode,
				func(i, j int) uint32 { return uint32(i*c.cols+j) + 1 }, want, nil, nil)
			wantSize := map[uint32]uint32{}
			for _, l := range want {
				if l != 0 {
					wantSize[l]++
				}
			}

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
			runs, roots, seeds, off := bl.Runs(), bl.Roots(), bl.Seeds(), bl.RowOffsets()
			sizes = bl.ComponentSizes(sizes)
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

// TestBandResolveSteadyStateAllocs pins the per-band work of the
// streaming census — resolve, paint the two seam rows, fold component
// sizes — at zero allocations once the labeler's scratch has grown to the
// band, for both modes.
func TestBandResolveSteadyStateAllocs(t *testing.T) {
	const n, rows = 128, 64
	for _, c := range []struct {
		mode Mode
		im   *image.Image
	}{
		{Binary, image.RandomBinary(n, 0.45, 5)},
		{Grey, image.RandomGrey(n, 4, 5)},
	} {
		var bl BandLabeler
		row := make([]uint32, n)
		var sizes []uint32
		band := 0
		step := func() {
			// Alternate between the image's two bands, as a band loop would.
			pix := c.im.Pix[band*rows*n : (band+1)*rows*n]
			band ^= 1
			bl.Resolve(pix, rows, n, image.Conn8, c.mode)
			bl.PaintRow(0, row)
			bl.PaintRow(rows-1, row)
			sizes = bl.ComponentSizes(sizes)
		}
		for i := 0; i < 4; i++ {
			step() // grow scratch to the larger band
		}
		if a := testing.AllocsPerRun(20, step); a != 0 {
			t.Errorf("%v: %v allocs per band, want 0", c.mode, a)
		}
	}
}
