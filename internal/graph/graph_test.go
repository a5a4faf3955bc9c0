package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	ids, c := g.Components()
	if len(ids) != 0 || c != 0 {
		t.Errorf("empty graph: ids=%v c=%d", ids, c)
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := New(5)
	ids, c := g.Components()
	if c != 5 {
		t.Fatalf("5 isolated vertices: %d components", c)
	}
	seen := map[int32]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatal("two isolated vertices share a component")
		}
		seen[id] = true
	}
}

func TestPathAndCycle(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 3) // cycle
	ids, c := g.Components()
	if c != 2 {
		t.Fatalf("want 2 components, got %d", c)
	}
	if ids[0] != ids[1] || ids[1] != ids[2] {
		t.Error("path not one component")
	}
	if ids[3] != ids[4] || ids[4] != ids[5] {
		t.Error("cycle not one component")
	}
	if ids[0] == ids[3] {
		t.Error("distinct components merged")
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0)
	if g.Degree(0) != 0 {
		t.Error("self-loop added to adjacency")
	}
	_, c := g.Components()
	if c != 2 {
		t.Errorf("want 2 components, got %d", c)
	}
}

func TestParallelEdgesTolerated(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	_, c := g.Components()
	if c != 1 {
		t.Errorf("want 1 component, got %d", c)
	}
}

func TestReset(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.Reset(2)
	if g.N() != 2 || g.Degree(0) != 0 {
		t.Error("Reset did not clear")
	}
	g.Reset(10)
	if g.N() != 10 {
		t.Errorf("Reset(10): N=%d", g.N())
	}
	_, c := g.Components()
	if c != 10 {
		t.Errorf("after Reset: %d components", c)
	}
}

func TestMinLabelPerComponent(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	ids, c := g.Components()
	labels := []uint32{40, 10, 5, 99}
	reps := MinLabelPerComponent(ids, c, labels)
	if reps[ids[0]] != 10 {
		t.Errorf("component of 0: rep %d, want 10", reps[ids[0]])
	}
	if reps[ids[2]] != 5 {
		t.Errorf("component of 2: rep %d, want 5", reps[ids[2]])
	}
}

// TestComponentsMatchUnionFind checks BFS components against an independent
// union-find on random graphs (property test).
func TestComponentsMatchUnionFind(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		g := New(n)
		d := newDSU(n)
		for e := 0; e < rng.Intn(400); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			g.AddEdge(u, v)
			if u != v {
				d.union(u, v)
			}
		}
		ids, _ := g.Components()
		for u := 1; u < n; u++ {
			same := ids[u] == ids[0]
			ufSame := d.find(u) == d.find(0)
			if same != ufSame {
				return false
			}
		}
		// Full pairwise agreement via canonical maps.
		rep := map[int32]int{}
		for u := 0; u < n; u++ {
			r := d.find(u)
			if prev, ok := rep[ids[u]]; ok {
				if prev != r {
					return false
				}
			} else {
				rep[ids[u]] = r
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// dsu is the union-find oracle of TestComponentsMatchUnionFind: path
// halving, linking the second root under the first.
type dsu []int

func newDSU(n int) dsu {
	d := make(dsu, n)
	for i := range d {
		d[i] = i
	}
	return d
}

func (d dsu) find(x int) int {
	for d[x] != x {
		d[x] = d[d[x]]
		x = d[x]
	}
	return x
}

func (d dsu) union(a, b int) { d[d.find(b)] = d.find(a) }
