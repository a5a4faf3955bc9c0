// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one benchmark per exhibit) plus the ablation studies of the
// design choices called out in DESIGN.md.
//
// Each benchmark measures the host cost of the simulation and additionally
// reports the simulated execution time of the modeled machine as the custom
// metric "sim-ms" (and, where the paper reports it, bandwidth or work per
// pixel). The simulated metrics are the reproduction targets; host ns/op
// only says how fast the simulator itself runs. cmd/experiments prints the
// full tables; these benchmarks are the `go test -bench` entry points for
// the same code paths.
package parimg

import (
	"fmt"
	"testing"

	"parimg/internal/bdm"
	"parimg/internal/cc"
	"parimg/internal/comm"
	"parimg/internal/hist"
	"parimg/internal/image"
	"parimg/internal/machine"
	"parimg/internal/seq"
)

// paperMachines are the five platforms of the study.
var paperMachines = []bdm.CostParams{
	machine.CM5, machine.SP1, machine.SP2, machine.CS2, machine.Paragon,
}

func benchHist(b *testing.B, spec bdm.CostParams, p, n, k int) {
	im := image.RandomGrey(n, k, uint64(n+k))
	m, err := bdm.NewMachine(p, spec)
	if err != nil {
		b.Fatal(err)
	}
	var sim float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hist.Run(m, im, k)
		if err != nil {
			b.Fatal(err)
		}
		sim = res.Report.SimTime
	}
	b.ReportMetric(sim*1e3, "sim-ms")
	b.ReportMetric(sim*float64(p)/float64(n*n)*1e9, "sim-ns/pixel")
}

func benchCC(b *testing.B, spec bdm.CostParams, p int, im *image.Image, opt cc.Options) {
	m, err := bdm.NewMachine(p, spec)
	if err != nil {
		b.Fatal(err)
	}
	var sim float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cc.Run(m, im, opt)
		if err != nil {
			b.Fatal(err)
		}
		sim = res.Report.SimTime
	}
	n := im.N
	b.ReportMetric(sim*1e3, "sim-ms")
	b.ReportMetric(sim*float64(p)/float64(n*n)*1e6, "sim-us/pixel")
}

// BenchmarkTable1Histogram reproduces this paper's rows of Table 1:
// histogramming a 512x512, 256 grey-level image on each machine at the
// paper's processor count.
func BenchmarkTable1Histogram(b *testing.B) {
	rows := []struct {
		spec bdm.CostParams
		p    int
	}{
		{machine.CM5, 16}, {machine.SP1, 16}, {machine.SP2, 16},
		{machine.Paragon, 8}, {machine.CS2, 4},
	}
	for _, r := range rows {
		b.Run(fmt.Sprintf("%s/p=%d", r.spec.Name, r.p), func(b *testing.B) {
			benchHist(b, r.spec, r.p, 512, 256)
		})
	}
}

// BenchmarkTable2CC reproduces this paper's DARPA rows of Table 2:
// grey-scale connected components of the 512x512 benchmark scene.
func BenchmarkTable2CC(b *testing.B) {
	darpa := image.DARPASynthetic()
	rows := []struct {
		spec bdm.CostParams
		p    int
	}{
		{machine.CM5, 32}, {machine.SP1, 4}, {machine.SP2, 4},
		{machine.CS2, 2}, {machine.CS2, 32},
	}
	for _, r := range rows {
		b.Run(fmt.Sprintf("%s/p=%d", r.spec.Name, r.p), func(b *testing.B) {
			benchCC(b, r.spec, r.p, darpa, cc.Options{Conn: image.Conn8, Mode: seq.Grey})
		})
	}
}

// BenchmarkFig3Histogram reproduces the left panel of Figure 3:
// histogramming scalability on the CM-5, k=256, across processor counts.
func BenchmarkFig3Histogram(b *testing.B) {
	for _, p := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchHist(b, machine.CM5, p, 1024, 256)
		})
	}
}

// BenchmarkFig3CC reproduces the right panel of Figure 3: connected
// components scalability on the CM-5 (dual-spiral test image, the
// "difficult" catalog entry).
func BenchmarkFig3CC(b *testing.B) {
	im := image.Generate(image.DualSpiral, 512)
	for _, p := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCC(b, machine.CM5, p, im, cc.Options{})
		})
	}
}

// BenchmarkFig6to9Transpose reproduces the transpose halves of Figures 6-9:
// the matrix transposition on each machine at the paper's processor count,
// with the attained per-processor bandwidth as a reported metric.
func BenchmarkFig6to9Transpose(b *testing.B) {
	const q = 1 << 18
	for _, spec := range paperMachines {
		p := 32
		if spec.Name == machine.Paragon.Name {
			p = 8 // the paper's Paragon had 8 nodes (Figure 9)
		}
		b.Run(spec.Name, func(b *testing.B) {
			m, err := bdm.NewMachine(p, spec)
			if err != nil {
				b.Fatal(err)
			}
			in := bdm.NewSpread[uint32](m, q)
			out := bdm.NewSpread[uint32](m, q)
			var sim, bw float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				rep, err := m.Run(func(pr *bdm.Proc) { comm.Transpose(pr, out, in, q) })
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.SimTime
				bw = float64(q-q/p) * 4 / rep.CommTime / 1e6
			}
			b.ReportMetric(sim*1e3, "sim-ms")
			b.ReportMetric(bw, "sim-MB/s/proc")
		})
	}
}

// BenchmarkFig6to9Broadcast reproduces the broadcast halves of Figures 6-9.
func BenchmarkFig6to9Broadcast(b *testing.B) {
	const q = 1 << 18
	for _, spec := range paperMachines {
		p := 32
		if spec.Name == machine.Paragon.Name {
			p = 8
		}
		b.Run(spec.Name, func(b *testing.B) {
			m, err := bdm.NewMachine(p, spec)
			if err != nil {
				b.Fatal(err)
			}
			buf := bdm.NewSpread[uint32](m, q)
			scratch := bdm.NewSpread[uint32](m, q)
			var sim float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				rep, err := m.Run(func(pr *bdm.Proc) { comm.Broadcast(pr, buf, scratch, q, 0) })
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.SimTime
			}
			b.ReportMetric(sim*1e3, "sim-ms")
		})
	}
}

// BenchmarkFig10DARPA reproduces Figure 10: connected components of the
// 512x512 DARPA benchmark scene on every machine, p=32.
func BenchmarkFig10DARPA(b *testing.B) {
	darpa := image.DARPASynthetic()
	for _, spec := range paperMachines {
		b.Run(spec.Name, func(b *testing.B) {
			benchCC(b, spec, 32, darpa, cc.Options{Conn: image.Conn8, Mode: seq.Grey})
		})
	}
}

// BenchmarkFig11CompComm reproduces Figure 11: the computation and
// communication split of histogramming for 32 and 256 grey levels.
func BenchmarkFig11CompComm(b *testing.B) {
	for _, k := range []int{32, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			im := image.RandomGrey(512, k, uint64(k))
			m, err := bdm.NewMachine(32, machine.CM5)
			if err != nil {
				b.Fatal(err)
			}
			var comp, comm float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := hist.Run(m, im, k)
				if err != nil {
					b.Fatal(err)
				}
				comp, comm = res.Report.CompTime, res.Report.CommTime
			}
			b.ReportMetric(comp*1e3, "sim-comp-ms")
			b.ReportMetric(comm*1e3, "sim-comm-ms")
		})
	}
}

// BenchmarkFig12to14HistDetail reproduces Figures 12-14: CM-5 histogramming
// detail across processor counts (512x512 image, 256 grey levels).
func BenchmarkFig12to14HistDetail(b *testing.B) {
	for _, p := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchHist(b, machine.CM5, p, 512, 256)
		})
	}
}

// BenchmarkFig15to17CCDetail reproduces Figures 15-17: CM-5 connected
// components detail across processor counts on each catalog test image
// (512x512).
func BenchmarkFig15to17CCDetail(b *testing.B) {
	for _, p := range []int{16, 32, 64} {
		for _, id := range image.AllPatterns() {
			b.Run(fmt.Sprintf("p=%d/%s", p, id), func(b *testing.B) {
				benchCC(b, machine.CM5, p, image.Generate(id, 512), cc.Options{})
			})
		}
	}
}

// BenchmarkFig18SP1Hist reproduces Figure 18: SP-1 histogramming (p=16).
func BenchmarkFig18SP1Hist(b *testing.B) {
	benchHist(b, machine.SP1, 16, 512, 256)
}

// BenchmarkFig19SP1CC reproduces Figure 19: SP-1 connected components
// (p=16) on the dual-spiral image.
func BenchmarkFig19SP1CC(b *testing.B) {
	benchCC(b, machine.SP1, 16, image.Generate(image.DualSpiral, 512), cc.Options{})
}

// BenchmarkFig20SP2Hist reproduces Figure 20: SP-2 histogramming (p=16).
func BenchmarkFig20SP2Hist(b *testing.B) {
	benchHist(b, machine.SP2, 16, 512, 256)
}

// BenchmarkFig21SP2CC reproduces Figure 21: SP-2 connected components
// (p=32) across image sizes.
func BenchmarkFig21SP2CC(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchCC(b, machine.SP2, 32, image.Generate(image.DualSpiral, n), cc.Options{})
		})
	}
}

// --- Ablation benchmarks for the design choices in DESIGN.md. ---

// BenchmarkAblationChangeDist compares the paper's transpose-based change
// distribution (Section 5.4, Eq. (10)) against the naive every-client-pulls
// scheme (Eq. (8)). The simulated gap grows with p.
func BenchmarkAblationChangeDist(b *testing.B) {
	im := image.Generate(image.DualSpiral, 512)
	for _, p := range []int{16, 64} {
		for _, dist := range []cc.Dist{cc.DistTranspose, cc.DistDirect} {
			b.Run(fmt.Sprintf("p=%d/%v", p, dist), func(b *testing.B) {
				benchCC(b, machine.CM5, p, im, cc.Options{ChangeDist: dist})
			})
		}
	}
}

// BenchmarkAblationNoShadow compares merges with and without shadow
// managers (the second processor that prefetches and sorts the far border
// side concurrently with the group manager).
func BenchmarkAblationNoShadow(b *testing.B) {
	im := image.Generate(image.DualSpiral, 512)
	for _, noShadow := range []bool{false, true} {
		name := "shadow"
		if noShadow {
			name = "no-shadow"
		}
		b.Run(name, func(b *testing.B) {
			benchCC(b, machine.CM5, 32, im, cc.Options{NoShadow: noShadow})
		})
	}
}

// BenchmarkAblationFullRelabel quantifies the paper's novelty claim: the
// "drastically limited updating" of border pixels and hooks per merge
// versus relabeling every tile pixel per merge.
func BenchmarkAblationFullRelabel(b *testing.B) {
	im := image.Generate(image.DualSpiral, 512)
	for _, full := range []bool{false, true} {
		name := "limited-updating"
		if full {
			name = "full-relabel"
		}
		b.Run(name, func(b *testing.B) {
			benchCC(b, machine.CM5, 32, im, cc.Options{FullRelabel: full})
		})
	}
}

// BenchmarkAblationHistCollect compares the paper's transpose-based
// histogram rearrangement (communication independent of p) against a naive
// fan-in of whole histograms to processor 0 (communication linear in p).
func BenchmarkAblationHistCollect(b *testing.B) {
	im := image.RandomGrey(512, 256, 7)
	for _, naive := range []bool{false, true} {
		name := "transpose"
		if naive {
			name = "naive-fan-in"
		}
		b.Run(name, func(b *testing.B) {
			m, err := bdm.NewMachine(64, machine.CM5)
			if err != nil {
				b.Fatal(err)
			}
			var sim, commT float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var res *hist.Result
				if naive {
					res, err = hist.RunNaive(m, im, 256)
				} else {
					res, err = hist.Run(m, im, 256)
				}
				if err != nil {
					b.Fatal(err)
				}
				sim, commT = res.Report.SimTime, res.Report.CommTime
			}
			b.ReportMetric(sim*1e3, "sim-ms")
			b.ReportMetric(commT*1e3, "sim-comm-ms")
		})
	}
}

// BenchmarkAblationBroadcast compares Algorithm 2 against the naive
// root-serves-everyone broadcast.
func BenchmarkAblationBroadcast(b *testing.B) {
	const q = 1 << 16
	for _, naive := range []bool{false, true} {
		name := "algorithm2"
		if naive {
			name = "naive-fan-out"
		}
		b.Run(name, func(b *testing.B) {
			m, err := bdm.NewMachine(32, machine.CM5)
			if err != nil {
				b.Fatal(err)
			}
			buf := bdm.NewSpread[uint32](m, q)
			scratch := bdm.NewSpread[uint32](m, q)
			var sim float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				var rep bdm.Report
				if naive {
					rep, err = m.Run(func(pr *bdm.Proc) { comm.BroadcastNaive(pr, buf, q, 0) })
				} else {
					rep, err = m.Run(func(pr *bdm.Proc) { comm.Broadcast(pr, buf, scratch, q, 0) })
				}
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.SimTime
			}
			b.ReportMetric(sim*1e3, "sim-ms")
		})
	}
}

// BenchmarkBaselinePropagation compares the paper's algorithm against the
// iterative label-diffusion baseline on the dual spiral (see
// cc.RunPropagation): merging is bounded by log p rounds, diffusion by the
// component diameter in tiles.
func BenchmarkBaselinePropagation(b *testing.B) {
	im := image.Generate(image.DualSpiral, 512)
	b.Run("merge", func(b *testing.B) {
		benchCC(b, machine.CM5, 64, im, cc.Options{})
	})
	b.Run("diffusion", func(b *testing.B) {
		m, err := bdm.NewMachine(64, machine.CM5)
		if err != nil {
			b.Fatal(err)
		}
		var sim float64
		rounds := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := cc.RunPropagation(m, im, cc.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sim = res.Report.SimTime
			rounds = res.Phases
		}
		b.ReportMetric(sim*1e3, "sim-ms")
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkBaselineSV compares the paper's algorithm against the
// PRAM-style pointer-jumping baseline (Shiloach-Vishkin family): the
// data-dependent remote read per pixel per round is what makes PRAM ports
// uncompetitive on distributed memory.
func BenchmarkBaselineSV(b *testing.B) {
	im := image.Generate(image.DualSpiral, 128)
	b.Run("merge", func(b *testing.B) {
		benchCC(b, machine.CM5, 16, im, cc.Options{})
	})
	b.Run("pointer-jumping", func(b *testing.B) {
		m, err := bdm.NewMachine(16, machine.CM5)
		if err != nil {
			b.Fatal(err)
		}
		var sim float64
		var words int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := cc.RunShiloachVishkin(m, im, cc.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sim = res.Report.SimTime
			words = res.Report.Words
		}
		b.ReportMetric(sim*1e3, "sim-ms")
		b.ReportMetric(float64(words), "sim-words")
	})
}

// BenchmarkHostSequentialBaselines measures the host-native sequential
// BFS labeler, the p=1 anchor for efficiency computations.
func BenchmarkHostSequentialBaselines(b *testing.B) {
	im := image.RandomBinary(512, 0.55, 77)
	b.Run("bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.LabelBFS(im, image.Conn8, seq.Binary)
		}
	})
}
