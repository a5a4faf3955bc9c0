package par

import (
	"fmt"
	"testing"

	"parimg/internal/image"
	"parimg/internal/seq"
)

// Allocation budgets for steady-state Engine.LabelInto calls after one
// warm-up. A single-worker engine reuses every piece of scratch and must
// stay allocation-free; multi-worker engines pay only the per-phase
// goroutine closures of parallelDo (a handful of small allocations per
// phase), so the budget is a small multiple of the worker count.
const (
	allocBudget1W = 0
	allocBudgetNW = 16 // per worker: 4 phases x closure + waitgroup slack
)

// TestLabelIntoAllocs pins the steady-state allocation cost of repeated
// labelings of the run engine with the tree border merge, mirroring the
// simulator alloc work so the engine cannot silently regress it.
func TestLabelIntoAllocs(t *testing.T) {
	im := image.Generate(image.DualSpiral, 128)
	out := image.NewLabels(128)
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("runs/workers=%d/tree", w), func(t *testing.T) {
			e := NewEngine(w)
			e.LabelInto(im, image.Conn8, seq.Binary, out) // warm scratch
			budget := float64(allocBudget1W)
			if w > 1 {
				budget = float64(allocBudgetNW * w)
			}
			avg := testing.AllocsPerRun(10, func() {
				e.LabelInto(im, image.Conn8, seq.Binary, out)
			})
			if avg > budget {
				t.Fatalf("%.1f allocs per LabelInto, budget %.0f", avg, budget)
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
		e.LabelInto(im, image.Conn8, seq.Grey, out) // warm scratch
		avg := testing.AllocsPerRun(10, func() {
			e.LabelInto(im, image.Conn8, seq.Grey, out)
		})
		if avg > allocBudget1W {
			t.Fatalf("%.1f allocs per grey LabelInto, budget %d", avg, allocBudget1W)
		}
	})
}
