package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// spec names a workload and how to prepare it.
type spec struct {
	name    string
	why     string
	prepare func(cfg config, dir string) (bench, error)
}

// bench is a prepared workload: its inputs are generated and its oracles
// computed; nothing of the system under test is built yet.
type bench interface {
	// inputs describes the generated inputs: size, density, components,
	// runs.
	inputs() any
	// newInstance builds the system under test (engine, pool, server,
	// opened input file). It is timed into setup_s.
	newInstance() (instance, error)
}

// instance is the built system under test.
type instance interface {
	// clients is the closed-loop concurrency: 1 for a single caller.
	clients() int
	// do runs op k through the measured entry point and returns its
	// output unchecked; the caller times it. With corrupt set the output
	// is damaged before it is returned (the test hook). With a non-nil
	// tracer the instance records its layer split for the op.
	do(k int64, corrupt bool, tr *tracer) (output, error)
	// check compares an output with the oracle; it runs outside the timed
	// region.
	check(out output) error
	// layers turns the traced window's recordings into the per-layer
	// metrics and the op wall split; it may run standalone layer probes.
	layers(m *measurer, untraced, traced *window) (*layers, error)
	close() error
}

// output is what one op produced.
type output interface {
	kind() string // request kind, for the per-kind latency medians
	pixels() int64
}

// layers is the traced run's per-layer record.
type layers struct {
	values map[string]float64
	// split is the traced mean op wall time in milliseconds ("wall_ms")
	// and the named parts it divides into, unattributed share included;
	// the parts sum to wall_ms.
	split map[string]float64
}

// opSample is one measured op.
type opSample struct {
	kind string
	lat  time.Duration
	cpu  time.Duration // process CPU over the op; meaningful with one client
	pix  int64
}

// window is one measured stretch of ops.
type window struct {
	ops     []opSample
	wall    time.Duration // summed op latency (one client) or window span
	cpu     time.Duration // process user+sys CPU over the same time
	alloc   uint64        // heap bytes allocated
	peakRSS int64         // bytes; the high-water mark is reset at the start
	pix     int64
}

func (w *window) mpixPerS() float64 {
	if w.wall <= 0 {
		return 0
	}
	return float64(w.pix) / 1e6 / w.wall.Seconds()
}

// endToEnd derives the end-to-end metrics of an untraced window (setup_s
// and success_rate are added by the caller).
func (w *window) endToEnd() map[string]float64 {
	byKind := map[string][]float64{}
	var all []float64
	for _, o := range w.ops {
		ms := float64(o.lat.Nanoseconds()) / 1e6
		byKind[o.kind] = append(byKind[o.kind], ms)
		all = append(all, ms)
	}
	// op_p50_ms is the mean of the per-kind medians: a workload that cycles
	// through request kinds of different cost has a multi-modal latency
	// distribution whose plain median sits on a cluster edge.
	var p50 float64
	for _, k := range sortedKeys(byKind) {
		p50 += quantile(byKind[k], 0.5)
	}
	p50 /= float64(len(byKind))
	return map[string]float64{
		"mpix_s":          w.mpixPerS(),
		"op_p50_ms":       p50,
		"op_p99_ms":       quantile(all, 0.99),
		"cpu_ns_per_pix":  float64(w.cpu.Nanoseconds()) / float64(w.pix),
		"alloc_mb_per_op": float64(w.alloc) / float64(1<<20) / float64(len(w.ops)),
		"peak_rss_mb":     float64(w.peakRSS) / float64(1<<20),
	}
}

// quantile is the linearly interpolated q-quantile of xs (xs is sorted in
// place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

// beyond is how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// measurer runs setups and windows and keeps the run's op tally.
type measurer struct {
	cfg          config
	next         atomic.Int64 // op counter across the run, warm-ups included
	mu           sync.Mutex
	attempted    int64
	failed       int64
	firstFailure string
}

// tally records one checked op.
func (m *measurer) tally(k int64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	if err != nil {
		m.failed++
		if m.firstFailure == "" {
			m.firstFailure = fmt.Sprintf("op %d: %v", k, err)
		}
	}
}

// runOp runs, times and checks one op. A failed or wrong op is tallied
// and reported as not ok; it is not an error of the benchmark.
func (m *measurer) runOp(inst instance, tr *tracer) (opSample, bool) {
	k := m.next.Add(1) - 1
	corrupt := k == int64(m.cfg.corruptOp)
	c0 := processCPU()
	t0 := time.Now()
	out, err := inst.do(k, corrupt, tr)
	t1 := time.Now()
	cpu := processCPU() - c0
	if err == nil {
		err = inst.check(out)
	}
	m.tally(k, err)
	if err != nil {
		return opSample{}, false
	}
	tr.span("op:"+out.kind(), "", k, t0, t1)
	return opSample{kind: out.kind(), lat: t1.Sub(t0), cpu: cpu, pix: out.pixels()}, true
}

// setup builds the instance setupMinReps or more times — construction plus
// one warm-up op each — and keeps the last; setup_s is the median.
func (m *measurer) setup(b bench) (instance, float64, error) {
	// Hand the generators' and oracles' garbage back first, so set-up and
	// the windows start from the same heap on every run.
	runtime.GC()
	debug.FreeOSMemory()
	var inst instance
	var times []float64
	var spent time.Duration
	for i := 0; i < setupMaxReps && (i < setupMinReps || spent < setupMinTime); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		inst, err = b.newInstance()
		if err != nil {
			return nil, 0, err
		}
		// Every warm-up is op 0's request, so the reps time the same work.
		k := m.next.Add(1) - 1
		out, err := inst.do(0, k == int64(m.cfg.corruptOp), nil)
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
		if err == nil {
			err = inst.check(out)
		}
		m.tally(k, err)
	}
	return inst, quantile(times, 0.5), nil
}

// window drives the instance's clients in a closed loop for d (at least
// one op per client) and measures the stretch. With one client the wall
// and CPU time are summed over the ops themselves, so the oracle checks
// between ops stay outside; with several the whole window is measured.
func (m *measurer) window(inst instance, d time.Duration, tr *tracer) (*window, error) {
	runtime.GC()
	resetPeakRSS()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	w := &window{}
	n := inst.clients()
	start := time.Now()
	deadline := start.Add(d)
	cpu0 := processCPU()
	if n == 1 {
		for first := true; first || time.Now().Before(deadline); first = false {
			s, ok := m.runOp(inst, tr)
			if ok {
				w.ops = append(w.ops, s)
				w.wall += s.lat
				w.cpu += s.cpu
			}
		}
	} else {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for first := true; first || time.Now().Before(deadline); first = false {
					s, ok := m.runOp(inst, tr)
					if ok {
						mu.Lock()
						w.ops = append(w.ops, s)
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		w.wall = time.Since(start)
		w.cpu = processCPU() - cpu0
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	w.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	w.peakRSS = peakRSS()
	for _, o := range w.ops {
		w.pix += o.pix
	}
	if len(w.ops) == 0 {
		return nil, fmt.Errorf("no op succeeded in the window")
	}
	return w, nil
}

// traced is the --trace 1 run: half the time untraced, half traced, then
// the instance's per-layer metrics and the tracing overhead.
func (m *measurer) traced(inst instance, tr *tracer) (*layers, error) {
	half := secs(m.cfg.seconds / 2)
	plain, err := m.window(inst, half, nil)
	if err != nil {
		return nil, err
	}
	tw, err := m.window(inst, half, tr)
	if err != nil {
		return nil, err
	}
	l, err := inst.layers(m, plain, tw)
	if err != nil {
		return nil, err
	}
	l.values["obs.trace_overhead_pct"] = 100 * (plain.mpixPerS() - tw.mpixPerS()) / plain.mpixPerS()
	return l, nil
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's RSS high-water mark to the current RSS,
// so the peak covers the window and not input generation or oracles.
// Kernels without the reset leave the process-lifetime peak in place.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSS reads VmHWM from /proc/self/status, in bytes.
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err == nil {
				return kb << 10
			}
		}
	}
	return 0
}

// tracer keeps the benchmark's own spans in memory; write saves them at
// the end of the run. A nil tracer records nothing.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []traceSpan
}

// traceSpan is one span around a public call: times are nanoseconds since
// the tracer's origin, Op groups the spans of one op.
type traceSpan struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Op      int64  `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) span(name, parent string, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, traceSpan{Name: name, Parent: parent, Op: op,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds()})
	t.mu.Unlock()
}

// write saves the host record, the spans and the per-layer metrics as one
// JSON document.
func (t *tracer) write(path string, h host, l *layers) error {
	doc := struct {
		Host   host               `json:"host"`
		Layers map[string]float64 `json:"layers"`
		Split  map[string]float64 `json:"split"`
		Spans  []traceSpan        `json:"spans"`
	}{h, l.values, l.split, t.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
