package main

import (
	"fmt"
	"time"

	"parimg/internal/image"
	"parimg/internal/seq"
)

// probeInput is one workload image (or band of one) for the standalone
// image and seq layer probes.
type probeInput struct {
	pix        []uint32
	rows, cols int
	mode       seq.Mode
	comps      int // components the band must have; -1 when no oracle covers it
}

// probeLayers times the pack step (Bitplane or Byteplane SetRowsPix) and
// the band labeler (seq.BandLabeler.Label) standalone on the workload's
// own images and fills the image and seq layer metrics into v. Each call
// runs twice and the second is timed, so scratch growth stays out.
func probeLayers(m *measurer, v map[string]float64, probes []probeInput) {
	var bp image.Bitplane
	var bytep image.Byteplane
	var bl seq.BandLabeler
	var packNS, labelNS, pixels, runs, comps int64
	for _, p := range probes {
		n := p.rows * p.cols
		lab := make([]uint32, n)
		var c int
		for rep := 0; rep < 2; rep++ {
			t0 := time.Now()
			if p.mode == seq.Grey {
				bytep.ResetRect(p.rows, p.cols)
				bytep.SetRowsPix(p.pix[:n], 0, p.rows)
			} else {
				bp.ResetRect(p.rows, p.cols)
				bp.SetRowsPix(p.pix[:n], 0, p.rows)
			}
			t1 := time.Now()
			c = bl.Label(p.pix[:n], p.rows, p.cols, image.Conn8, p.mode, lab)
			t2 := time.Now()
			if rep == 1 {
				packNS += t1.Sub(t0).Nanoseconds()
				labelNS += t2.Sub(t1).Nanoseconds()
			}
		}
		pixels += int64(n)
		runs += int64(len(bl.Runs()) / 2)
		comps += int64(c)
		if p.comps >= 0 {
			k := m.next.Add(1) - 1
			var err error
			if c != p.comps {
				err = fmt.Errorf("seq.BandLabeler: %d components, oracle %d", c, p.comps)
			}
			m.tally(k, err)
		}
	}
	v["image.pack_ns_per_pix"] = float64(packNS) / float64(pixels)
	v["seq.label_ns_per_pix"] = float64(labelNS) / float64(pixels)
	v["seq.runs_per_kpix"] = float64(runs) / (float64(pixels) / 1000)
	v["seq.band_components"] = float64(comps) / float64(len(probes))
}
