package cc

import (
	"fmt"
	"testing"

	"parimg/internal/bdm"
	"parimg/internal/image"
	"parimg/internal/machine"
	"parimg/internal/seq"
)

func mustMachine(t testing.TB, p int) *bdm.Machine {
	t.Helper()
	m, err := bdm.NewMachine(p, machine.CM5)
	if err != nil {
		t.Fatalf("NewMachine(%d): %v", p, err)
	}
	return m
}

// checkExact verifies that the parallel labeling equals the sequential
// row-major BFS labeling exactly (min-representative merging keeps labels
// canonical), and cross-checks the partition against union-find.
func checkExact(t *testing.T, im *image.Image, p int, opt Options) {
	t.Helper()
	m := mustMachine(t, p)
	res, err := Run(m, im, opt)
	if err != nil {
		t.Fatalf("Run(n=%d p=%d %v %v): %v", im.N, p, opt.Conn, opt.Mode, err)
	}
	o := opt
	if err := o.normalize(); err != nil {
		t.Fatal(err)
	}
	want := seq.LabelBFS(im, o.Conn, o.Mode)
	for idx := range want.Lab {
		if res.Labels.Lab[idx] != want.Lab[idx] {
			t.Fatalf("n=%d p=%d %v %v: pixel (%d,%d): label %d, want %d",
				im.N, p, o.Conn, o.Mode, idx/im.N, idx%im.N,
				res.Labels.Lab[idx], want.Lab[idx])
		}
	}
}

func TestBinaryPatternsAllP(t *testing.T) {
	for _, id := range image.AllPatterns() {
		for _, p := range []int{1, 2, 4, 8, 16, 32} {
			id, p := id, p
			t.Run(fmt.Sprintf("%v/p=%d", id, p), func(t *testing.T) {
				im := image.Generate(id, 64)
				checkExact(t, im, p, Options{Conn: image.Conn8, Mode: seq.Binary})
				checkExact(t, im, p, Options{Conn: image.Conn4, Mode: seq.Binary})
			})
		}
	}
}

func TestRandomBinaryImages(t *testing.T) {
	for _, density := range []float64{0.1, 0.4, 0.593, 0.8} {
		for _, p := range []int{4, 16, 64} {
			im := image.RandomBinary(64, density, uint64(1000*density)+uint64(p))
			checkExact(t, im, p, Options{Conn: image.Conn8, Mode: seq.Binary})
			checkExact(t, im, p, Options{Conn: image.Conn4, Mode: seq.Binary})
		}
	}
}

func TestGreyImages(t *testing.T) {
	for _, k := range []int{4, 16} {
		for _, p := range []int{4, 16} {
			im := image.RandomGrey(64, k, uint64(k+p))
			checkExact(t, im, p, Options{Conn: image.Conn8, Mode: seq.Grey})
			checkExact(t, im, p, Options{Conn: image.Conn4, Mode: seq.Grey})
		}
	}
}

func TestDARPAScene(t *testing.T) {
	im := image.DARPAScene(128, 256, 42)
	for _, p := range []int{4, 16} {
		checkExact(t, im, p, Options{Conn: image.Conn8, Mode: seq.Grey})
	}
}

func TestAllForegroundAndAllBackground(t *testing.T) {
	n := 32
	bg := image.New(n)
	checkExact(t, bg, 16, Options{})
	fg := image.New(n)
	for i := range fg.Pix {
		fg.Pix[i] = 1
	}
	checkExact(t, fg, 16, Options{})
}

func TestSinglePixelComponents(t *testing.T) {
	// A checkerboard: under 4-connectivity every foreground pixel is its
	// own component; under 8-connectivity they all join.
	n := 32
	im := image.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if (i+j)%2 == 0 {
				im.Set(i, j, 1)
			}
		}
	}
	checkExact(t, im, 16, Options{Conn: image.Conn4})
	checkExact(t, im, 16, Options{Conn: image.Conn8})

	m := mustMachine(t, 16)
	r4, err := Run(m, im, Options{Conn: image.Conn4})
	if err != nil {
		t.Fatal(err)
	}
	if want := n * n / 2; r4.Components != want {
		t.Errorf("checkerboard 4-conn: %d components, want %d", r4.Components, want)
	}
	r8, err := Run(m, im, Options{Conn: image.Conn8})
	if err != nil {
		t.Fatal(err)
	}
	if r8.Components != 1 {
		t.Errorf("checkerboard 8-conn: %d components, want 1", r8.Components)
	}
}

func TestNonSquareGrid(t *testing.T) {
	// p=8 and p=32 exercise the v != w grid (odd log p) and therefore
	// the unbalanced merge schedule.
	for _, p := range []int{2, 8, 32} {
		im := image.RandomBinary(64, 0.55, uint64(p))
		checkExact(t, im, p, Options{})
	}
}

func TestDistDirectMatches(t *testing.T) {
	im := image.RandomBinary(64, 0.5, 11)
	checkExact(t, im, 16, Options{ChangeDist: DistDirect})
}

func TestNoShadowMatches(t *testing.T) {
	im := image.RandomBinary(64, 0.5, 12)
	checkExact(t, im, 16, Options{NoShadow: true})
}

func TestFullRelabelMatches(t *testing.T) {
	im := image.RandomBinary(64, 0.5, 13)
	checkExact(t, im, 16, Options{FullRelabel: true})
}

func TestAllOptionCombinations(t *testing.T) {
	im := image.RandomBinary(32, 0.55, 99)
	for _, dist := range []Dist{DistTranspose, DistDirect} {
		for _, noShadow := range []bool{false, true} {
			for _, full := range []bool{false, true} {
				opt := Options{ChangeDist: dist, NoShadow: noShadow, FullRelabel: full}
				checkExact(t, im, 16, opt)
			}
		}
	}
}

func TestComponentsCountMatchesCensus(t *testing.T) {
	im := image.RandomBlobs(64, 12, 5)
	m := mustMachine(t, 16)
	res, err := Run(m, im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.LabelBFS(im, image.Conn8, seq.Binary).Components()
	if res.Components != want {
		t.Errorf("Components=%d, want %d", res.Components, want)
	}
}

func TestInvalidOptions(t *testing.T) {
	im := image.RandomBinary(32, 0.5, 1)
	m := mustMachine(t, 4)
	if _, err := Run(m, im, Options{Conn: image.Connectivity(5)}); err == nil {
		t.Error("invalid connectivity: want error")
	}
	if _, err := Run(m, im, Options{Mode: seq.Mode(7)}); err == nil {
		t.Error("invalid mode: want error")
	}
}

func TestTinyTiles(t *testing.T) {
	// 1 x 1 tiles: n = 8, p = 64 — every pixel is a border pixel and
	// every merge border is maximal.
	im := image.RandomBinary(8, 0.6, 3)
	checkExact(t, im, 64, Options{})
	// 1 x 2 tiles: n = 8, p = 32.
	checkExact(t, im, 32, Options{})
}
