package parimg_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"parimg"
	"parimg/internal/atomicio"
	"parimg/internal/obs"
)

// TestParMetricsPhasesCoverTotal pins the headline acceptance property of
// the measured side: the recorded top-level phase wall times of one
// host-parallel labeling sum to within 5% of the end-to-end wall time.
// Wall clocks on shared machines are noisy, so one clean attempt out of
// five passes.
func TestParMetricsPhasesCoverTotal(t *testing.T) {
	im := parimg.GeneratePattern(parimg.DualSpiral, 512)
	eng := parimg.NewParallelEngine(4)
	rec := parimg.NewMetricsRecorder()
	eng.SetObserver(rec)
	out := parimg.NewLabels(im.N)

	var best float64
	for attempt := 0; attempt < 5; attempt++ {
		rec.Reset()
		start := time.Now()
		eng.LabelInto(im, parimg.Conn8, parimg.Binary, out)
		total := time.Since(start).Nanoseconds()
		m := rec.Snapshot()
		m.TotalNS = total
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		covered := float64(m.WallPhaseNS()) / float64(total)
		if covered > best {
			best = covered
		}
		if covered >= 0.95 && covered <= 1.0 {
			for _, name := range []string{"strip_label", "border_merge", "relabel", "cleanup"} {
				if m.WallPhaseNS(name) <= 0 {
					t.Errorf("phase %q not recorded", name)
				}
			}
			return
		}
	}
	t.Errorf("phase wall times cover %.1f%% of the end-to-end time, want >= 95%%", 100*best)
}

// TestSimMetricsModelPhasesAndComm pins the modeled side: the top-level
// modeled phases of a simulated labeling sum to the run's SimTime exactly
// (rank-0 barrier marks partition the run), and the communication volume
// is attributed to the labeling's primitives.
func TestSimMetricsModelPhasesAndComm(t *testing.T) {
	sim, err := parimg.NewSimulator(16, parimg.CM5)
	if err != nil {
		t.Fatal(err)
	}
	rec := parimg.NewMetricsRecorder()
	sim.SetObserver(rec)
	im := parimg.GeneratePattern(parimg.DualSpiral, 256)
	res, err := sim.Label(im, parimg.LabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Snapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := m.ModelPhaseS()
	if rel := math.Abs(sum-res.Report.SimTime) / res.Report.SimTime; rel > 1e-6 {
		t.Errorf("modeled phases sum to %.9f s, SimTime is %.9f s (rel err %.2g)",
			sum, res.Report.SimTime, rel)
	}
	for _, name := range []string{"init", "merge", "final_update"} {
		if m.ModelPhaseS(name) <= 0 {
			t.Errorf("modeled phase %q not recorded", name)
		}
	}
	comm := make(map[string]parimg.CommStat, len(m.Comm))
	for _, c := range m.Comm {
		comm[c.Name] = c
	}
	for _, name := range []string{"border_fetch", "change_dist"} {
		c, ok := comm[name]
		if !ok || c.Taus <= 0 || c.Words <= 0 {
			t.Errorf("comm primitive %q missing or empty: %+v", name, c)
		}
	}
}

// TestSimHistogramMetrics checks the histogram pipeline's modeled phases
// and its transpose/collect communication attribution.
func TestSimHistogramMetrics(t *testing.T) {
	sim, err := parimg.NewSimulator(16, parimg.CM5)
	if err != nil {
		t.Fatal(err)
	}
	rec := parimg.NewMetricsRecorder()
	sim.SetObserver(rec)
	im := parimg.RandomGrey(128, 256, 1)
	res, err := sim.Histogram(im, 256)
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Snapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := m.ModelPhaseS()
	if rel := math.Abs(sum-res.Report.SimTime) / res.Report.SimTime; rel > 1e-6 {
		t.Errorf("modeled phases sum to %.9f s, SimTime is %.9f s", sum, res.Report.SimTime)
	}
	for _, name := range []string{"tally", "rearrange_combine", "collect"} {
		if m.ModelPhaseS(name) <= 0 {
			t.Errorf("modeled phase %q not recorded", name)
		}
	}
	var sawTranspose, sawCollect bool
	for _, c := range m.Comm {
		switch c.Name {
		case "transpose", "truncated_transpose":
			sawTranspose = true
		case "collect":
			sawCollect = true
		}
	}
	if !sawTranspose || !sawCollect {
		t.Errorf("histogram comm attribution incomplete: %+v", m.Comm)
	}
}

// TestMetricsFlagSmoke is the CI smoke test for the -metrics flag: run the
// actual imgcc binary on a small pattern for both host-parallel and
// simulator backends and validate the emitted JSON against the schema
// (obs.ReadFile validates on read).
func TestMetricsFlagSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/imgcc; skipped in -short mode")
	}
	dir := t.TempDir()

	parPath := filepath.Join(dir, "par.json")
	runImgcc(t, "-pattern", "four-squares", "-n", "128", "-backend", "par",
		"-workers", "2", "-top", "0", "-metrics", parPath)
	m, err := obs.ReadFile(parPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend != "par" || m.Workers != 2 ||
		m.N != 128 || m.Image != "four-squares" {
		t.Errorf("par metrics context fields wrong: %+v", m)
	}
	if len(m.Phases) == 0 || m.TotalNS <= 0 || m.Counters["runs"] == 0 {
		t.Errorf("par metrics measurements missing: %+v", m)
	}

	simPath := filepath.Join(dir, "sim.json")
	runImgcc(t, "-pattern", "four-squares", "-n", "128", "-backend", "sim",
		"-p", "4", "-top", "0", "-metrics", simPath)
	m, err = obs.ReadFile(simPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend != "sim" || m.Procs != 4 || m.SimTimeS <= 0 {
		t.Errorf("sim metrics context fields wrong: %+v", m)
	}
	if len(m.Phases) == 0 || len(m.Comm) == 0 {
		t.Errorf("sim metrics measurements missing: %+v", m)
	}
}

func runImgcc(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/imgcc"}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("imgcc %v: %v", args, err)
	}
}

// TestMetricsOnFailedRuns pins that a failed imgcc run still leaves a
// diagnosable record: a host-parallel run whose -timeout expires and a
// -stream -out run whose labels overflow the 16-bit PGM each exit nonzero
// yet write a schema-valid -metrics document carrying the abort reason,
// while the stream run leaves no partial -out or -census-json behind.
func TestMetricsOnFailedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/imgcc; skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "imgcc")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/imgcc").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/imgcc: %v\n%s", err, out)
	}
	requireFailedWithMetrics := func(path string, args ...string) {
		t.Helper()
		cmd := exec.Command(bin, append(args, "-metrics", path)...)
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Fatalf("imgcc %v succeeded, want a failure:\n%s", args, out)
		}
		m, err := obs.ReadFile(path) // validates on read
		if err != nil {
			t.Fatalf("imgcc %v: no valid metrics document: %v", args, err)
		}
		if m.Aborted == "" {
			t.Errorf("imgcc %v: metrics document has no aborted reason: %+v", args, m)
		}
	}

	requireFailedWithMetrics(filepath.Join(dir, "par.json"),
		"-pattern", "dual-spiral", "-n", "256", "-backend", "par", "-workers", "2",
		"-timeout", "1ns", "-top", "0")

	// An n x n checkerboard under 4-connectivity has n*n/2 isolated
	// components: at n = 400, 80000 > 65535, so the census succeeds and the
	// 16-bit label write fails.
	const n = 400
	var pgm bytes.Buffer
	fmt.Fprintf(&pgm, "P5\n%d %d\n255\n", n, n)
	for i := 0; i < n*n; i++ {
		pgm.WriteByte(byte(255 * ((i/n + i%n + 1) % 2)))
	}
	in := filepath.Join(dir, "checker.pgm")
	if err := os.WriteFile(in, pgm.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "labels.pgm")
	census := filepath.Join(dir, "census.json")
	requireFailedWithMetrics(filepath.Join(dir, "stream.json"),
		"-stream", "-in", in, "-band-rows", "64", "-conn", "4", "-top", "0",
		"-out", out, "-census-json", census)
	for _, p := range []string{out, out + atomicio.PartialSuffix, census, census + atomicio.PartialSuffix} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("failed stream run left %s behind (stat: %v)", p, err)
		}
	}
}
