package seq

import (
	"testing"
	"testing/quick"

	"parimg/internal/image"
)

func TestModeConnected(t *testing.T) {
	cases := []struct {
		m    Mode
		a, b uint32
		want bool
	}{
		{Binary, 0, 0, false},
		{Binary, 1, 0, false},
		{Binary, 0, 1, false},
		{Binary, 1, 1, true},
		{Binary, 1, 7, true},
		{Grey, 1, 1, true},
		{Grey, 1, 2, false},
		{Grey, 0, 0, false},
		{Grey, 5, 5, true},
	}
	for _, c := range cases {
		if got := c.m.Connected(c.a, c.b); got != c.want {
			t.Errorf("%v.Connected(%d,%d) = %v, want %v", c.m, c.a, c.b, got, c.want)
		}
	}
}

func TestHistogramCountsEverything(t *testing.T) {
	pix := []uint32{0, 1, 1, 3, 3, 3, 7}
	h := make([]uint32, 8)
	if err := Histogram(pix, h); err != nil {
		t.Fatal(err)
	}
	want := []uint32{1, 2, 0, 3, 0, 0, 0, 1}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("h[%d] = %d, want %d", i, h[i], want[i])
		}
	}
}

func TestHistogramRejectsOutOfRange(t *testing.T) {
	h := make([]uint32, 4)
	if err := Histogram([]uint32{4}, h); err == nil {
		t.Error("want error for grey level == k")
	}
}

func TestHistogramAccumulates(t *testing.T) {
	h := make([]uint32, 2)
	if err := Histogram([]uint32{1, 1}, h); err != nil {
		t.Fatal(err)
	}
	if err := Histogram([]uint32{1, 0}, h); err != nil {
		t.Fatal(err)
	}
	if h[0] != 1 || h[1] != 3 {
		t.Errorf("h = %v, want [1 3]", h)
	}
}

func TestLabelBFSKnownShapes(t *testing.T) {
	// Two horizontal bars separated by background.
	im := image.New(8)
	for j := 0; j < 8; j++ {
		im.Set(0, j, 1)
		im.Set(4, j, 1)
	}
	lab := LabelBFS(im, image.Conn8, Binary)
	if lab.Components() != 2 {
		t.Fatalf("want 2 components, got %d", lab.Components())
	}
	// Canonical labels: seed global index + 1.
	if lab.At(0, 0) != 1 {
		t.Errorf("top bar label = %d, want 1", lab.At(0, 0))
	}
	if lab.At(4, 0) != uint32(4*8+0+1) {
		t.Errorf("bottom bar label = %d, want %d", lab.At(4, 0), 4*8+1)
	}
}

func TestLabelBFSDiagonalConnectivity(t *testing.T) {
	// Two diagonal pixels: joined under 8-conn, separate under 4-conn.
	im := image.New(4)
	im.Set(0, 0, 1)
	im.Set(1, 1, 1)
	if got := LabelBFS(im, image.Conn8, Binary).Components(); got != 1 {
		t.Errorf("8-conn: %d components, want 1", got)
	}
	if got := LabelBFS(im, image.Conn4, Binary).Components(); got != 2 {
		t.Errorf("4-conn: %d components, want 2", got)
	}
}

func TestLabelBFSGreyVsBinary(t *testing.T) {
	// Adjacent pixels with different nonzero greys: one binary
	// component, two grey components.
	im := image.New(4)
	im.Set(0, 0, 1)
	im.Set(0, 1, 2)
	if got := LabelBFS(im, image.Conn4, Binary).Components(); got != 1 {
		t.Errorf("binary: %d, want 1", got)
	}
	if got := LabelBFS(im, image.Conn4, Grey).Components(); got != 2 {
		t.Errorf("grey: %d, want 2", got)
	}
}

// TestThreeLabelersAgree is the core cross-check: BFS, union-find and
// two-pass labeling must produce identical canonical labels on random
// images across connectivities and modes.
func TestThreeLabelersAgree(t *testing.T) {
	for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
		for _, mode := range []Mode{Binary, Grey} {
			for seed := uint64(0); seed < 6; seed++ {
				var im *image.Image
				if mode == Grey {
					im = image.RandomGrey(48, 4, seed)
				} else {
					im = image.RandomBinary(48, 0.55, seed)
				}
				a := LabelBFS(im, conn, mode)
				b := labelUnionFind(im, conn, mode)
				c := labelTwoPass(im, conn, mode)
				for idx := range a.Lab {
					if a.Lab[idx] != b.Lab[idx] {
						t.Fatalf("%v %v seed=%d: BFS vs union-find differ at %d: %d vs %d",
							conn, mode, seed, idx, a.Lab[idx], b.Lab[idx])
					}
					if a.Lab[idx] != c.Lab[idx] {
						t.Fatalf("%v %v seed=%d: BFS vs two-pass differ at %d: %d vs %d",
							conn, mode, seed, idx, a.Lab[idx], c.Lab[idx])
					}
				}
			}
		}
	}
}

func TestLabelersAgreeOnPatterns(t *testing.T) {
	for _, id := range image.AllPatterns() {
		im := image.Generate(id, 64)
		for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
			a := LabelBFS(im, conn, Binary)
			b := labelUnionFind(im, conn, Binary)
			for idx := range a.Lab {
				if a.Lab[idx] != b.Lab[idx] {
					t.Fatalf("%v %v: BFS vs union-find differ at %d", id, conn, idx)
				}
			}
		}
	}
}

func TestDisjointSetBasics(t *testing.T) {
	d := newDisjointSet(5)
	for i := int32(0); i < 5; i++ {
		if d.Find(i) != i {
			t.Fatalf("fresh set: Find(%d) = %d", i, d.Find(i))
		}
	}
	d.Union(0, 1)
	d.Union(3, 4)
	if d.Find(0) != d.Find(1) {
		t.Error("0 and 1 not joined")
	}
	if d.Find(0) == d.Find(3) {
		t.Error("separate sets joined")
	}
	d.Union(1, 3)
	if d.Find(0) != d.Find(4) {
		t.Error("transitive union failed")
	}
	// Union of already-joined elements is a no-op.
	r := d.Find(0)
	if got := d.Union(0, 4); got != r {
		t.Errorf("redundant union returned %d, want %d", got, r)
	}
}

func TestDisjointSetPropertyEquivalence(t *testing.T) {
	// Union-find must realize exactly the transitive closure of the
	// union operations: model with an explicit relation matrix.
	f := func(ops []struct{ A, B uint8 }) bool {
		const n = 16
		d := newDisjointSet(n)
		var rel [n][n]bool
		for i := 0; i < n; i++ {
			rel[i][i] = true
		}
		for _, op := range ops {
			a, b := int32(op.A%n), int32(op.B%n)
			d.Union(a, b)
			rel[a][b], rel[b][a] = true, true
		}
		// Transitive closure (Floyd-Warshall style).
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if !rel[i][k] {
					continue
				}
				for j := 0; j < n; j++ {
					if rel[k][j] {
						rel[i][j] = true
					}
				}
			}
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				if (d.Find(i) == d.Find(j)) != rel[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTileLabelerPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on size mismatch")
		}
	}()
	TileLabeler(make([]uint32, 4), 2, 3, image.Conn8, Binary,
		func(i, j int) uint32 { return 1 }, make([]uint32, 6), nil)
}

func TestFloodRelabel(t *testing.T) {
	// A 4x4 tile with an L-shaped component.
	pix := []uint32{
		1, 1, 0, 0,
		1, 0, 0, 2,
		1, 0, 2, 2,
		0, 0, 0, 0,
	}
	labels := make([]uint32, 16)
	TileLabeler(pix, 4, 4, image.Conn4, Grey,
		func(i, j int) uint32 { return uint32(i*4+j) + 1 }, labels, nil)
	var visited Visited
	visited.Reset(16)
	FloodRelabel(pix, labels, 4, 4, image.Conn4, Grey, 0, 999, &visited, nil)
	for _, idx := range []int{0, 1, 4, 8} {
		if labels[idx] != 999 {
			t.Errorf("pixel %d: label %d, want 999", idx, labels[idx])
		}
	}
	// The grey-2 component and background are untouched.
	if labels[7] == 999 || labels[15] != 0 {
		t.Error("flood leaked outside the component")
	}
	// A second flood of the same pass sees the earlier marks.
	if !visited.Seen(0) || visited.Seen(7) {
		t.Error("visited marks wrong after flood")
	}
	// Reset invalidates every mark without clearing.
	visited.Reset(16)
	if visited.Seen(0) {
		t.Error("Reset did not invalidate marks")
	}
}

// The two baselines below exist only to cross-check LabelBFS: a
// pixel-pair union-find labeler and the classic two-pass scanline
// labeler, both canonicalized to LabelBFS's minimum-index labels.

// disjointSet is a union-find structure with union by size and path
// halving, used by the baseline labelers below.
type disjointSet struct {
	parent []int32
	size   []int32
}

// newDisjointSet returns n singleton sets.
func newDisjointSet(n int) *disjointSet {
	d := &disjointSet{parent: make([]int32, n), size: make([]int32, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	return d
}

// Find returns the representative of x's set.
func (d *disjointSet) Find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = d.parent[x]
	}
	return x
}

// Union merges the sets of a and b, returning the surviving root.
func (d *disjointSet) Union(a, b int32) int32 {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return ra
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	return ra
}

// forwardOffsets returns each undirected adjacency exactly once (the
// neighbor positions after the current pixel in row-major order).
func forwardOffsets(conn image.Connectivity) [][2]int {
	if conn == image.Conn4 {
		return [][2]int{{0, 1}, {1, 0}}
	}
	return [][2]int{{0, 1}, {1, -1}, {1, 0}, {1, 1}}
}

// labelUnionFind labels an image by unioning every adjacent connected pixel
// pair, then canonicalizing each foreground pixel to the minimum global
// index in its set plus one — the same canonical labels as LabelBFS, so
// outputs are comparable with ==, not just up to renaming.
func labelUnionFind(im *image.Image, conn image.Connectivity, mode Mode) *image.Labels {
	n := im.N
	d := newDisjointSet(n * n)
	offs := forwardOffsets(conn)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			u := i*n + j
			if im.Pix[u] == 0 {
				continue
			}
			for _, dd := range offs {
				vi, vj := i+dd[0], j+dd[1]
				if vi < 0 || vi >= n || vj < 0 || vj >= n {
					continue
				}
				v := vi*n + vj
				if mode.Connected(im.Pix[u], im.Pix[v]) {
					d.Union(int32(u), int32(v))
				}
			}
		}
	}
	// Minimum global index per root; the first foreground pixel of each
	// set in row-major order is that minimum.
	min := make([]int32, n*n)
	for i := range min {
		min[i] = -1
	}
	for u := 0; u < n*n; u++ {
		if im.Pix[u] == 0 {
			continue
		}
		r := d.Find(int32(u))
		if min[r] < 0 {
			min[r] = int32(u)
		}
	}
	out := image.NewLabels(n)
	for u := 0; u < n*n; u++ {
		if im.Pix[u] != 0 {
			out.Lab[u] = uint32(min[d.Find(int32(u))]) + 1
		}
	}
	return out
}

// labelTwoPass labels an image with the classic two-pass scanline algorithm
// (Rosenfeld-Pfaltz style): the first pass assigns provisional labels from
// already-scanned neighbors and records label equivalences; the second pass
// resolves equivalences with union-find. Labels are canonicalized to the
// minimum global index plus one, like LabelBFS. A third independent
// baseline for cross-checking.
func labelTwoPass(im *image.Image, conn image.Connectivity, mode Mode) *image.Labels {
	n := im.N
	prov := make([]int32, n*n) // provisional label per pixel, 0 = background
	next := int32(1)
	var eqA, eqB []int32 // recorded equivalences

	// Backward neighbors (already scanned) for each connectivity.
	var offs [][2]int
	if conn == image.Conn4 {
		offs = [][2]int{{-1, 0}, {0, -1}}
	} else {
		offs = [][2]int{{-1, -1}, {-1, 0}, {-1, 1}, {0, -1}}
	}

	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			u := i*n + j
			if im.Pix[u] == 0 {
				continue
			}
			first := int32(0)
			for _, dd := range offs {
				vi, vj := i+dd[0], j+dd[1]
				if vi < 0 || vi >= n || vj < 0 || vj >= n {
					continue
				}
				v := vi*n + vj
				if !mode.Connected(im.Pix[u], im.Pix[v]) {
					continue
				}
				if first == 0 {
					first = prov[v]
				} else if prov[v] != first {
					eqA = append(eqA, first)
					eqB = append(eqB, prov[v])
				}
			}
			if first == 0 {
				first = next
				next++
			}
			prov[u] = first
		}
	}

	d := newDisjointSet(int(next))
	for i := range eqA {
		d.Union(eqA[i], eqB[i])
	}

	// Canonical label: minimum global index per resolved class.
	min := make([]int32, next)
	for i := range min {
		min[i] = -1
	}
	for u := 0; u < n*n; u++ {
		if prov[u] == 0 {
			continue
		}
		r := d.Find(prov[u])
		if min[r] < 0 {
			min[r] = int32(u)
		}
	}
	out := image.NewLabels(n)
	for u := 0; u < n*n; u++ {
		if prov[u] != 0 {
			out.Lab[u] = uint32(min[d.Find(prov[u])]) + 1
		}
	}
	return out
}
