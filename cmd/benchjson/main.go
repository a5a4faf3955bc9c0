// Command benchjson measures the wall-clock labeling throughput of the
// sequential BFS baseline and of the host-parallel run engine, at one
// worker and at a multi-worker count, in binary and in grey connectivity,
// and writes the matrix as JSON (default BENCH_runs.json) for tracking
// across commits.
//
// The multi-worker count is GOMAXPROCS when that is more than one, and an
// oversubscribed 4 otherwise, so a 1-CPU container still measures the
// row-range split and its seams (concurrency effects are then simulated by
// the scheduler, but the per-phase algorithmic costs — run extraction,
// seam unites, the paint — are real). Host-parallel rows carry algo "runs" and merge
// "tree", the keys of the cells baselines written before the par BFS path
// and the Shiloach-Vishkin merge were retired.
//
// Every run covers all nine Figure 1 catalog patterns plus the synthetic
// DARPA scene, so the report reflects worst-case inputs (single-pixel-wide
// features, dense small components) as well as spiral-friendly ones; each
// input is labeled in both modes, so the DARPA scene — the paper's
// flagship grey workload — exercises the grey run extractor over the byte
// plane, not just binary foreground runs. Each measurement labels its
// image repeatedly for at least -mintime and keeps the fastest iteration,
// the usual go-bench floor of scheduling noise. Every configuration's
// output is verified pixel-for-pixel against the sequential reference, and
// the summary records the geometric-mean speedup of the single-worker run
// engine over the sequential BFS on the 1024^2 catalog patterns, per mode.
// GOMAXPROCS and NumCPU are recorded so a reader can tell a 1-core
// container from a real multicore host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"parimg"
	"parimg/internal/benchfmt"
	"parimg/internal/cli"
	"parimg/internal/errs"
)

func main() { os.Exit(cli.Run("benchjson", run)) }

func run() error {
	var (
		out         = flag.String("o", "BENCH_runs.json", "output file")
		workers     = cli.WorkersFlag(flag.CommandLine)
		minTime     = flag.Duration("mintime", 200*time.Millisecond, "minimum measuring time per configuration")
		metricsPath = cli.MetricsFlag(flag.CommandLine)
		timeout     = cli.TimeoutFlag(flag.CommandLine)
	)
	flag.Parse()

	ctx, cancel := cli.TimeoutContext(*timeout)
	defer cancel()
	start := time.Now()

	maxW := cli.Workers(*workers)
	multiW := maxW
	if multiW < 2 {
		multiW = 4
	}
	workerCounts := []int{1, multiW}

	rep := benchfmt.Report{
		Benchmark:  "label backend x workers x mode matrix, nine catalog patterns + DARPA, binary and grey",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Conn:       parimg.Conn8.String(),
		Modes:      parimg.Binary.String() + "," + parimg.Grey.String(),
		MinTimeMS:  minTime.Milliseconds(),
	}

	type input struct {
		name string
		im   *parimg.Image
	}
	var inputs []input
	for _, n := range []int{512, 1024} {
		for _, id := range parimg.AllPatterns() {
			im, err := parimg.GeneratePattern(id, n)
			if err != nil {
				return err
			}
			inputs = append(inputs, input{id.String(), im})
		}
	}
	inputs = append(inputs, input{"darpa", parimg.DARPAImage()})

	// logSpeedupSum/logSpeedupN accumulate, per mode, the log-speedups of
	// the single-worker run engine over the sequential BFS on the 1024^2
	// catalog patterns for the geometric-mean summaries.
	logSpeedupSum := map[parimg.Mode]float64{}
	logSpeedupN := map[parimg.Mode]int{}

	// With -metrics, every host-parallel configuration gets one extra
	// instrumented labeling (outside the timed loop) and the per-phase
	// documents are written as one JSON array.
	var metricsDocs []*parimg.Metrics
	rec := parimg.NewMetricsRecorder()

	for _, in := range inputs {
		for _, mode := range []parimg.Mode{parimg.Binary, parimg.Grey} {
			// The sequential baseline and the timed loops below run minutes
			// in total; the per-input check keeps -timeout honest between
			// configurations, and LabelIntoContext enforces it inside them.
			if err := ctx.Err(); err != nil {
				return errs.FromContext("benchjson", time.Since(start), err)
			}
			n := in.im.N
			pix := float64(n * n)
			want, err := parimg.LabelSequential(in.im, parimg.Conn8, mode)
			if err != nil {
				return err
			}

			record := func(backend, algo, merge string, w int, ns int64, got *parimg.Labels, comps int) {
				agree := true
				for i := range want.Lab {
					if want.Lab[i] != got.Lab[i] {
						agree = false
						break
					}
				}
				rep.Rows = append(rep.Rows, benchfmt.Row{
					Pattern: in.name, N: n, Backend: backend, Algo: algo,
					Mode: mode.String(), Merge: merge, Workers: w,
					NS: ns, MPixPerS: pix / (float64(ns) / 1e9) / 1e6,
					Components: comps, LabelsAgreed: agree,
				})
				fmt.Printf("%-18s n=%-5d %-6s %-3s %-4s %-4s w=%-2d  %10v  %8.1f MPix/s  identical=%v\n",
					in.name, n, mode, backend, algo, merge, w, time.Duration(ns), pix/(float64(ns)/1e9)/1e6, agree)
			}

			// Sequential baseline (backend seq, the paper's Section 5.1 BFS).
			seqOut := parimg.NewLabels(n)
			var seqNS int64
			{
				var l *parimg.Labels
				var seqErr error
				seqNS = best(*minTime, func() { l, seqErr = parimg.LabelSequential(in.im, parimg.Conn8, mode) })
				if seqErr != nil {
					return seqErr
				}
				copy(seqOut.Lab, l.Lab)
				record("seq", "bfs", "", 1, seqNS, seqOut, seqOut.Components())
			}

			// Host-parallel backend: the run engine at each worker count.
			var runs1 int64
			for _, w := range workerCounts {
				eng := parimg.NewParallelEngine(w)
				got := parimg.NewLabels(n)
				var comps int
				var runErr error
				ns := best(*minTime, func() {
					if runErr != nil {
						return
					}
					comps, runErr = eng.LabelIntoContext(ctx, in.im, parimg.Conn8, mode, got)
				})
				if runErr != nil {
					return runErr
				}
				record("par", "runs", "tree", w, ns, got, comps)
				if *metricsPath != "" {
					rec.Reset()
					eng.SetObserver(rec)
					t0 := time.Now()
					_, err := eng.LabelIntoContext(ctx, in.im, parimg.Conn8, mode, got)
					instrNS := time.Since(t0).Nanoseconds()
					eng.SetObserver(nil)
					if err != nil {
						return err
					}
					m := rec.Snapshot()
					m.Command, m.Backend = "benchjson", "par"
					m.Workers, m.Image, m.N = w, in.name, n
					m.TotalNS = instrNS
					metricsDocs = append(metricsDocs, m)
				}
				if w == 1 {
					runs1 = ns
				}
			}
			if n == 1024 && in.name != "darpa" && runs1 > 0 {
				logSpeedupSum[mode] += math.Log(float64(seqNS) / float64(runs1))
				logSpeedupN[mode]++
			}
		}
	}

	if n := logSpeedupN[parimg.Binary]; n > 0 {
		rep.GeomeanRunsOverBFS1W1024 = math.Exp(logSpeedupSum[parimg.Binary] / float64(n))
	}
	if n := logSpeedupN[parimg.Grey]; n > 0 {
		rep.GeomeanGreyRunsOverBFS1W1024 = math.Exp(logSpeedupSum[parimg.Grey] / float64(n))
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if *metricsPath != "" {
		if err := cli.WriteMetricsList(*metricsPath, metricsDocs); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d per-configuration metrics documents)\n", *metricsPath, len(metricsDocs))
	}
	fmt.Printf("wrote %s (gomaxprocs=%d, numcpu=%d, geomean seq bfs / par runs @1w/1024 = %.2fx binary, %.2fx grey)\n",
		*out, rep.GoMaxProcs, rep.NumCPU,
		rep.GeomeanRunsOverBFS1W1024, rep.GeomeanGreyRunsOverBFS1W1024)
	return nil
}

// best runs fn repeatedly for at least minTime and returns the fastest
// single-iteration wall time in nanoseconds.
func best(minTime time.Duration, fn func()) int64 {
	var fastest int64 = 1<<63 - 1
	deadline := time.Now().Add(minTime)
	for time.Now().Before(deadline) {
		start := time.Now()
		fn()
		if d := time.Since(start).Nanoseconds(); d < fastest {
			fastest = d
		}
	}
	return fastest
}
