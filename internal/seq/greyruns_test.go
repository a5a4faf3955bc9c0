package seq

import (
	"fmt"
	"testing"

	"parimg/internal/image"
)

// LabelRunsGrey labels a whole grey image with the run-based two-pass
// algorithm, taking the full-width extraction path when a grey level
// exceeds a byte: the sequential grey baseline the tests compare against
// LabelBFS in Grey mode.
func LabelRunsGrey(im *image.Image, conn image.Connectivity) *image.Labels {
	bp, wide := image.NewByteplane(im)
	if wide {
		bp = nil
	}
	out := image.NewLabels(im.N)
	var rl RunLabeler
	rl.LabelGreyStrip(bp, im, 0, im.N, conn, false, out.Lab)
	return out
}

// greyRunsOfRow extracts one row's equal-grey-level runs the slow way,
// pixel by pixel — the reference for both extractors.
func greyRunsOfRow(row []uint32) (runs []int32, vals []uint32) {
	open := false
	var cur uint32
	for j, v := range row {
		if open && v != cur {
			runs = append(runs, int32(j))
			vals = append(vals, cur)
			open = false
		}
		if !open && v != 0 {
			runs = append(runs, int32(j))
			cur = v
			open = true
		}
	}
	if open {
		runs = append(runs, int32(len(row)))
		vals = append(vals, cur)
	}
	return runs, vals
}

// greyRow builds a single-row image from vs and returns its packed words
// and raw pixels.
func greyRow(t *testing.T, vs []uint32) ([]uint64, []uint32) {
	t.Helper()
	n := len(vs)
	im := image.New(n)
	copy(im.Pix, vs)
	bp, wide := image.NewByteplane(im)
	if wide {
		t.Fatalf("greyRow: values exceed a byte: %v", vs)
	}
	return bp.Row(0), im.Pix
}

// TestAppendGreyRunsTable pins the extractor's edge cases: value changes
// exactly at 64-bit word boundaries (every 8th pixel in the byte plane),
// runs spanning whole words, single-pixel alternating rows, all-equal
// rows, and rows ending foreground at and off word boundaries.
func TestAppendGreyRunsTable(t *testing.T) {
	rep := func(v uint32, k int) []uint32 {
		s := make([]uint32, k)
		for i := range s {
			s[i] = v
		}
		return s
	}
	cat := func(parts ...[]uint32) []uint32 {
		var s []uint32
		for _, p := range parts {
			s = append(s, p...)
		}
		return s
	}
	cases := []struct {
		name string
		row  []uint32
	}{
		{"empty row", rep(0, 24)},
		{"all-equal row", rep(5, 24)},
		{"all-equal row, width % 8 != 0", rep(5, 21)},
		{"all-equal single word", rep(9, 8)},
		{"single pixel", rep(3, 1)},
		{"value change at word boundary", cat(rep(1, 8), rep(2, 8))},
		{"value change one before boundary", cat(rep(1, 7), rep(2, 9))},
		{"value change one after boundary", cat(rep(1, 9), rep(2, 7))},
		{"value to background at boundary", cat(rep(1, 8), rep(0, 8), rep(3, 8))},
		{"run spanning several words", cat(rep(0, 3), rep(4, 20), rep(0, 2), rep(6, 7))},
		{"single-pixel alternating", []uint32{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1}},
		{"alternating with background", []uint32{1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 2, 0}},
		{"foreground ends at row end, width % 8 != 0", cat(rep(0, 5), rep(8, 6))},
		{"255 and 1 levels", cat(rep(255, 9), rep(1, 9))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantRuns, wantVals := greyRunsOfRow(c.row)
			words, pix := greyRow(t, c.row)

			gotRuns, gotVals := AppendGreyRuns(words, nil, nil)
			if fmt.Sprint(gotRuns) != fmt.Sprint(wantRuns) || fmt.Sprint(gotVals) != fmt.Sprint(wantVals) {
				t.Errorf("AppendGreyRuns = %v/%v, want %v/%v", gotRuns, gotVals, wantRuns, wantVals)
			}

			gotRuns, gotVals = AppendGreyRunsPix(pix, nil, nil)
			if fmt.Sprint(gotRuns) != fmt.Sprint(wantRuns) || fmt.Sprint(gotVals) != fmt.Sprint(wantVals) {
				t.Errorf("AppendGreyRunsPix = %v/%v, want %v/%v", gotRuns, gotVals, wantRuns, wantVals)
			}
		})
	}
}

// TestAppendGreyRunsMatchesPixelScan checks both extractors against the
// per-pixel reference on random grey rows, with widths straddling word
// boundaries and grey-level counts from near-binary to full 8-bit.
func TestAppendGreyRunsMatchesPixelScan(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 128, 200} {
		for _, k := range []int{2, 3, 16, 256} {
			im := image.RandomGrey(n, k, uint64(n*k+1))
			bp, wide := image.NewByteplane(im)
			if wide {
				t.Fatalf("n=%d k=%d: unexpected wide plane", n, k)
			}
			for i := 0; i < n; i++ {
				row := im.Pix[i*n : (i+1)*n]
				wantRuns, wantVals := greyRunsOfRow(row)
				gotRuns, gotVals := AppendGreyRuns(bp.Row(i), nil, nil)
				if fmt.Sprint(gotRuns) != fmt.Sprint(wantRuns) || fmt.Sprint(gotVals) != fmt.Sprint(wantVals) {
					t.Fatalf("n=%d k=%d row %d: runs %v/%v, want %v/%v",
						n, k, i, gotRuns, gotVals, wantRuns, wantVals)
				}
				gotRuns, gotVals = AppendGreyRunsPix(row, nil, nil)
				if fmt.Sprint(gotRuns) != fmt.Sprint(wantRuns) || fmt.Sprint(gotVals) != fmt.Sprint(wantVals) {
					t.Fatalf("n=%d k=%d row %d (pix): runs %v/%v, want %v/%v",
						n, k, i, gotRuns, gotVals, wantRuns, wantVals)
				}
			}
		}
	}
}

// TestLabelRunsGreyMatchesBFS checks the sequential grey run labeler
// against LabelBFS in Grey mode, exactly, across the catalog, the DARPA
// scene, and random grey sweeps, both connectivities.
func TestLabelRunsGreyMatchesBFS(t *testing.T) {
	var inputs []*image.Image
	for _, id := range image.AllPatterns() {
		inputs = append(inputs, image.Generate(id, 64))
	}
	inputs = append(inputs, image.DARPAScene(96, 16, 7))
	for _, n := range []int{1, 2, 3, 17, 65} {
		for _, k := range []int{2, 8, 256} {
			inputs = append(inputs, image.RandomGrey(n, k, uint64(n+k)))
		}
	}
	for ii, im := range inputs {
		for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
			want := LabelBFS(im, conn, Grey)
			got := LabelRunsGrey(im, conn)
			for i := range want.Lab {
				if got.Lab[i] != want.Lab[i] {
					t.Fatalf("input %d %v: pixel %d: got %d, want %d",
						ii, conn, i, got.Lab[i], want.Lab[i])
				}
			}
		}
	}
}

// TestLabelRunsGreyWideLevels checks the full-width extraction fallback:
// grey levels that collide modulo 256 must stay distinct components, and
// the output must still match the grey BFS exactly.
func TestLabelRunsGreyWideLevels(t *testing.T) {
	im := image.New(12)
	for i := 0; i < 12; i++ {
		for j := 0; j < 6; j++ {
			im.Set(i, j, 300)
		}
		for j := 6; j < 12; j++ {
			im.Set(i, j, 300+256)
		}
	}
	for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
		want := LabelBFS(im, conn, Grey)
		got := LabelRunsGrey(im, conn)
		for i := range want.Lab {
			if got.Lab[i] != want.Lab[i] {
				t.Fatalf("%v: pixel %d: got %d, want %d", conn, i, got.Lab[i], want.Lab[i])
			}
		}
		if c := got.Components(); c != 2 {
			t.Fatalf("%v: %d components, want 2", conn, c)
		}
	}
}

// TestGreyRunTouchingDiagonals pins the unite sweep's touching-run cases:
// maximal grey runs may abut with no background gap, so under Conn8 a run
// can be diagonally adjacent to the run on either side of a touching pair
// in the neighboring row — the case a naive advance-smaller-end sweep
// drops.
func TestGreyRunTouchingDiagonals(t *testing.T) {
	build := func(rows ...[]uint32) *image.Image {
		n := len(rows[0])
		im := image.New(n)
		for i, r := range rows {
			copy(im.Pix[i*n:(i+1)*n], r)
		}
		return im
	}
	cases := []struct {
		name string
		im   *image.Image
	}{
		// prev [0,2)=5; cur [0,2)=7 | [2,4)=5: 5s meet only diagonally,
		// across the touching boundary of the current row's pair.
		{"diagonal right of touching pair", build(
			[]uint32{5, 5, 0, 0},
			[]uint32{7, 7, 5, 5},
		)},
		// Mirror image: prev [0,2)=7 | [2,4)=5; cur [0,2)=5.
		{"diagonal left of touching pair", build(
			[]uint32{7, 7, 5, 5},
			[]uint32{5, 5, 7, 7},
		)},
		// Both diagonals live at once around one touching boundary.
		{"both diagonals at one boundary", build(
			[]uint32{5, 5, 6, 6},
			[]uint32{6, 6, 5, 5},
		)},
		// A long chain of touching single-pixel runs against a solid row.
		{"alternating against solid", build(
			[]uint32{1, 2, 1, 2, 1, 2, 1, 2},
			[]uint32{2, 2, 2, 2, 2, 2, 2, 2},
		)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
				want := LabelBFS(c.im, conn, Grey)
				got := LabelRunsGrey(c.im, conn)
				for i := range want.Lab {
					if got.Lab[i] != want.Lab[i] {
						t.Fatalf("%v: pixel %d: got %d, want %d", conn, i, got.Lab[i], want.Lab[i])
					}
				}
			}
		})
	}
}

func BenchmarkLabelRunsGrey(b *testing.B) {
	im := image.DARPAScene(1024, 256, 1994)
	bp, wide := image.NewByteplane(im)
	if wide {
		b.Fatal("darpa scene should pack into bytes")
	}
	out := image.NewLabels(im.N)
	var rl RunLabeler
	b.SetBytes(int64(im.N * im.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rl.LabelGreyStrip(bp, im, 0, im.N, image.Conn8, true, out.Lab)
	}
}
