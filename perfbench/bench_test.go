package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyRun runs one workload on test-sized inputs and returns its result
// and report lines.
func tinyRun(t *testing.T, workload string, trace bool, corruptOp int) (*result, string) {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 0.2, trace: trace, tiny: true,
		outDir: t.TempDir(), corruptOp: corruptOp}
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// TestTinyWorkloads runs every workload untraced and traced on tiny inputs
// and checks that each prints exactly its kind's metrics, with units, and
// that every output passed its oracle.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, report := tinyRun(t, w.name, trace, -1)
			if !res.correct() {
				t.Fatalf("%s trace=%v: %d of %d ops failed\n%s", w.name, trace, res.failed, res.attempted, report)
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.metrics[m.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.name)
				}
			}
			for name, v := range res.summary()["metrics"].(map[string]any) {
				if v.(map[string]any)["unit"] == "" {
					t.Errorf("%s trace=%v: metric %s has no unit", w.name, trace, name)
				}
			}
			if !trace {
				for _, name := range []string{"mpix_s", "op_p50_ms", "op_p99_ms", "cpu_ns_per_pix", "setup_s", "success_rate"} {
					if res.metrics[name] <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, res.metrics[name])
					}
				}
			}
			for _, line := range []string{"host: ", "inputs: "} {
				if !strings.Contains(report, line) {
					t.Errorf("%s trace=%v: report lacks %q", w.name, trace, line)
				}
			}
		}
	}
}

// TestTracedSplitAddsUp checks that each workload's traced split divides
// the op wall time into named parts with nothing left over.
func TestTracedSplitAddsUp(t *testing.T) {
	for _, w := range workloads {
		_, report := tinyRun(t, w.name, true, -1)
		var split map[string]float64
		for _, line := range strings.Split(report, "\n") {
			if rest, ok := strings.CutPrefix(line, "split: "); ok {
				if err := json.Unmarshal([]byte(rest), &split); err != nil {
					t.Fatal(err)
				}
			}
		}
		wall, ok := split["wall_ms"]
		if !ok || wall <= 0 {
			t.Fatalf("%s: split %v has no wall_ms", w.name, split)
		}
		var sum float64
		for k, v := range split {
			if k != "wall_ms" {
				sum += v
			}
		}
		if d := sum - wall; d > 1e-6*wall || d < -1e-6*wall {
			t.Errorf("%s: parts sum to %v ms, wall %v ms", w.name, sum, wall)
		}
	}
}

// TestCorruptedOutputFails damages one op's output — the first warm-up op,
// and op setupMaxReps, which follows every warm-up — and expects exactly
// that op to be counted as failed.
func TestCorruptedOutputFails(t *testing.T) {
	for _, w := range workloads {
		for _, op := range []int{0, setupMaxReps} {
			res, report := tinyRun(t, w.name, false, op)
			if res.failed != 1 || res.correct() {
				t.Errorf("%s: corrupting op %d gave %d failed of %d\n%s", w.name, op, res.failed, res.attempted, report)
			}
			if !strings.Contains(report, "first_failure: ") {
				t.Errorf("%s: report does not name the failure", w.name)
			}
		}
	}
}

// TestCLI checks the command-line contract: the summary is the last line,
// with exactly the four keys; bad flags fail without a summary.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := cliMain([]string{"--workload", "serve-mixed", "--seed", "3", "--seconds", "0.2",
		"--trace", "0", "--tiny", "--out", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var summary map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(summary) != 4 {
		t.Errorf("summary keys %v, want correct, attempted, failed, metrics", summary)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := summary[k]; !ok {
			t.Errorf("summary lacks %q", k)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("an untraced run left %d entries in its output directory", len(entries))
	}

	for _, args := range [][]string{
		{"--workload", "nope", "--out", dir},
		{"--workload", "serve-mixed", "--trace", "2"},
		{"--workload", "serve-mixed", "--seconds", "0"},
		{"--bogus"},
	} {
		out.Reset()
		if code := cliMain(args, &out, &errOut); code == 0 || strings.Contains(out.String(), `"metrics"`) {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// lists exactly the workloads and metrics this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d run", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: listed %q, run %q", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics listed, %d printed", len(doc.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range doc.EndToEnd {
		want := endToEndMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end %d: listed %+v, printed %+v", i, m, want)
		}
	}
	if len(doc.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics listed, %d printed", len(doc.PerLayer), len(perLayerMetrics))
	}
	for i, m := range doc.PerLayer {
		want := perLayerMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: listed %+v, printed %+v", i, m, want)
		}
	}
}
