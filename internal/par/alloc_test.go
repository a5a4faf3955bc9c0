package par

import (
	"fmt"
	"testing"

	"parimg/internal/image"
	"parimg/internal/seq"
)

// Allocation budgets for steady-state Engine.LabelIntoContext calls after one
// warm-up. A single-worker engine reuses every piece of scratch and must
// stay allocation-free; multi-worker engines pay only for their goroutines
// (the labeler's sub-slab steps and the paint workers, a handful of small
// allocations each), so the budget is a small multiple of the worker count.
const (
	allocBudget1W = 0
	allocBudgetNW = 16 // per worker: 3 goroutine rounds x closure + waitgroup slack
)

// TestLabelIntoAllocs pins the steady-state allocation cost of repeated
// labelings of the run engine, mirroring the simulator alloc work so the
// engine cannot silently regress it. (The "/tree" suffix of the subtest
// names is kept so their IDs stay stable.)
func TestLabelIntoAllocs(t *testing.T) {
	im := image.Generate(image.DualSpiral, 128)
	out := image.NewLabels(128)
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("runs/workers=%d/tree", w), func(t *testing.T) {
			e := NewEngine(w)
			labelInto(t, e, im, image.Conn8, seq.Binary, out) // warm scratch
			budget := float64(allocBudget1W)
			if w > 1 {
				budget = float64(allocBudgetNW * w)
			}
			avg := testing.AllocsPerRun(10, func() {
				if _, err := e.LabelIntoContext(nil, im, image.Conn8, seq.Binary, out); err != nil {
					t.Fatal(err)
				}
			})
			if avg > budget {
				t.Fatalf("%.1f allocs per LabelIntoContext, budget %.0f", avg, budget)
			}
		})
	}
}

// TestGreyLabelIntoAllocs pins the steady-state allocation cost of Grey
// mode: the grey run path (byteplane packing plus grey run extraction)
// must stay allocation-free at one worker after warm-up.
func TestGreyLabelIntoAllocs(t *testing.T) {
	im := image.RandomGrey(128, 8, 3)
	out := image.NewLabels(128)
	t.Run("runs", func(t *testing.T) {
		e := NewEngine(1)
		labelInto(t, e, im, image.Conn8, seq.Grey, out) // warm scratch
		avg := testing.AllocsPerRun(10, func() {
			if _, err := e.LabelIntoContext(nil, im, image.Conn8, seq.Grey, out); err != nil {
				t.Fatal(err)
			}
		})
		if avg > allocBudget1W {
			t.Fatalf("%.1f allocs per grey LabelIntoContext, budget %d", avg, allocBudget1W)
		}
	})
}
