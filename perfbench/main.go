// Command perfbench is the repository's layered benchmark. It drives the
// resident engine, the out-of-core band pipeline and the labeling service
// in process, through each layer's public entry points, on seeded
// component-dense inputs; checks every output against an oracle that does
// not share the measured path; and prints the end-to-end metrics (or, with
// --trace 1, the per-layer split) as one JSON object on the last line of
// standard output. README.md in this directory describes the workloads and
// the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // test-sized inputs: every workload finishes in seconds
	outDir   string // generated inputs and trace documents go here
	// corruptOp, when >= 0, corrupts the output of that op (counting every
	// op of the run from 0, warm-ups included) before it is checked — the
	// test hook proving that a wrong output is counted as failed.
	corruptOp int
}

// A run builds its instance (construction plus one warm-up op) at least
// setupMinReps times, and more while the reps have taken less than
// setupMinTime, up to setupMaxReps; setup_s is the median. Cheap set-ups
// thus get enough reps for a steady median.
const (
	setupMinReps = 3
	setupMaxReps = 50
	setupMinTime = 2 * time.Second
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "test-sized inputs")
	fs.StringVar(&cfg.outDir, "out", ".bench_build", "directory for generated inputs and trace documents")
	cfg.corruptOp = -1
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d: want 0 or 1\n", trace)
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds %v: want > 0\n", cfg.seconds)
		return 2
	}
	res, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.correct() {
		return 1
	}
	return 0
}

// result is what one run measured.
type result struct {
	attempted int64
	failed    int64
	metrics   map[string]float64
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// summary is the last line of standard output: exactly the keys correct,
// attempted, failed and metrics, with every metric of the run's kind and
// its unit.
func (r *result) summary() map[string]any {
	ms := make(map[string]any, len(r.metrics))
	for name, v := range r.metrics {
		ms[name] = map[string]any{"value": v, "unit": unitOf(name)}
	}
	return map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	}
}

// run prepares the workload's inputs and oracles, measures it and returns
// the metrics of the run's kind. Report lines (host, inputs, samples, the
// traced split) go to w before the caller prints the summary.
func run(cfg config, w io.Writer) (*result, error) {
	spec, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.outDir, "work-")
	if err != nil {
		return nil, fmt.Errorf("creating the input directory: %w", err)
	}
	defer os.RemoveAll(work)

	host := hostRecord(cfg)
	report(w, "host", host)

	b, err := spec.prepare(cfg, work)
	if err != nil {
		return nil, fmt.Errorf("%s: preparing inputs: %w", spec.name, err)
	}
	report(w, "inputs", b.inputs())

	m := &measurer{cfg: cfg}
	inst, setupS, err := m.setup(b)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", spec.name, err)
	}
	defer inst.close()

	res := &result{metrics: map[string]float64{}}
	if !cfg.trace {
		win, err := m.window(inst, secs(cfg.seconds), nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		for k, v := range win.endToEnd() {
			res.metrics[k] = v
		}
		res.metrics["setup_s"] = setupS
		report(w, "samples", map[string]any{"ops": len(win.ops), "p99_samples_beyond": beyond(len(win.ops), 0.99)})
	} else {
		tr := newTracer()
		layers, err := m.traced(inst, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", spec.name, err)
		}
		for _, name := range perLayerNames() {
			res.metrics[name] = layers.values[name] // layers a workload bypasses read 0
		}
		report(w, "split", layers.split)
		path := filepath.Join(cfg.outDir, "trace-"+spec.name+".json")
		if err := tr.write(path, host, layers); err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
		report(w, "trace", path)
	}
	res.attempted, res.failed = m.attempted, m.failed
	if !cfg.trace {
		res.metrics["success_rate"] = float64(res.attempted-res.failed) / float64(res.attempted)
	}
	if m.firstFailure != "" {
		report(w, "first_failure", m.firstFailure)
	}
	return res, nil
}

// report prints one labelled JSON line of the run record.
func report(w io.Writer, label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "%s: %s\n", label, b)
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// host is the record printed with every result, so numbers from different
// hosts or builds are never compared silently.
type host struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Seed       uint64  `json:"seed"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Tiny       bool    `json:"tiny,omitempty"`
}

func hostRecord(cfg config) host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Seed:       cfg.seed,
		Commit:     commitOf("."),
		Workload:   cfg.workload,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Tiny:       cfg.tiny,
	}
}

// sortedKeys returns m's keys in order, for deterministic reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
