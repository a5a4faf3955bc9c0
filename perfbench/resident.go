package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"time"

	"parimg"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// residentSide is the side of the resident-dense images.
func residentSide(tiny bool) int {
	if tiny {
		return 64
	}
	return 4096
}

// residentInput is one of the two images resident-dense alternates
// between, with its seq.LabelBFS oracle.
type residentInput struct {
	name  string
	mode  parimg.Mode
	sq    squareInput
	want  []uint32 // seq.LabelBFS labels
	comps int
}

type residentBench struct {
	n    int
	imgs []*residentInput
}

func prepareResident(cfg config, _ string) (bench, error) {
	n := residentSide(cfg.tiny)
	bin := &residentInput{name: "binary", mode: parimg.Binary,
		sq: makeSquare(n, 1, func(row []byte, i int) { noiseRow(row, rowRNG(cfg.seed, "resident-binary", i), 0.43) })}
	grey := &residentInput{name: "grey", mode: parimg.Grey,
		sq: makeSquare(n, 3, func(row []byte, i int) { greyRow(row, rowRNG(cfg.seed, "resident-grey", i)) })}
	for _, in := range []*residentInput{bin, grey} {
		l := seq.LabelBFS(in.sq.im, parimg.Conn8, in.mode)
		in.want, in.comps = l.Lab, l.Components()
		in.sq.im = nil // the oracle labels are all the check needs
	}
	return &residentBench{n: n, imgs: []*residentInput{bin, grey}}, nil
}

func (b *residentBench) inputs() any {
	var out []map[string]any
	for _, in := range b.imgs {
		out = append(out, map[string]any{
			"image": in.name, "cols": b.n, "rows": b.n, "conn": 8,
			"density": in.sq.stats.density(), "components": in.comps, "runs": in.sq.stats.Runs,
		})
	}
	return out
}

func (b *residentBench) newInstance() (instance, error) {
	return &residentInst{b: b, eng: parimg.NewParallelEngine(0), out: parimg.NewLabels(b.n),
		rec: parimg.NewMetricsRecorder(), acc: newPhaseAcc()}, nil
}

// residentInst is one engine with workers = GOMAXPROCS and its reused
// label plane.
type residentInst struct {
	b   *residentBench
	eng *parimg.ParallelEngine
	out *parimg.Labels
	rec *parimg.MetricsRecorder
	acc *phaseAcc // traced ops: engine phases and counters
	// decode and label are the traced ops' summed ReadPGM and
	// LabelIntoContext spans.
	decode, label time.Duration
}

type residentOut struct {
	in    *residentInput
	comps int
}

func (o residentOut) kind() string  { return o.in.name }
func (o residentOut) pixels() int64 { return o.in.sq.stats.Pixels }

func (r *residentInst) clients() int { return 1 }

func (r *residentInst) do(k int64, corrupt bool, tr *tracer) (output, error) {
	in := r.b.imgs[k%int64(len(r.b.imgs))]
	return r.labelOnce(r.eng, in, k, corrupt, tr)
}

// labelOnce decodes in's PGM and labels it on eng into the instance's
// label plane.
func (r *residentInst) labelOnce(eng *parimg.ParallelEngine, in *residentInput, k int64,
	corrupt bool, tr *tracer) (output, error) {
	if tr != nil {
		r.rec.Reset()
		eng.SetObserver(r.rec)
		defer eng.SetObserver(nil)
	}
	t0 := time.Now()
	im, err := parimg.ReadPGM(bytes.NewReader(in.sq.pgm))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	comps, err := eng.LabelIntoContext(context.Background(), im, parimg.Conn8, in.mode, r.out)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	if tr != nil {
		tr.span("parimg.ReadPGM", "op", k, t0, t1)
		tr.span("ParallelEngine.LabelIntoContext", "op", k, t1, t2)
		r.decode += t1.Sub(t0)
		r.label += t2.Sub(t1)
		r.acc.add(r.rec.Snapshot())
	}
	if corrupt {
		r.out.Lab[len(r.out.Lab)/2] ^= 1
	}
	return residentOut{in: in, comps: comps}, nil
}

func (r *residentInst) check(o output) error {
	out := o.(residentOut)
	if out.comps != out.in.comps {
		return fmt.Errorf("%s: %d components, oracle %d", out.in.name, out.comps, out.in.comps)
	}
	if !slices.Equal(r.out.Lab, out.in.want) {
		return fmt.Errorf("%s: labels differ from seq.LabelBFS", out.in.name)
	}
	return nil
}

func (r *residentInst) layers(m *measurer, plain, tw *window) (*layers, error) {
	ops := float64(r.acc.ops)
	l := &layers{values: map[string]float64{}, split: map[string]float64{}}
	v := l.values
	v["image.decode_ns_per_pix"] = float64(r.decode.Nanoseconds()) / float64(tw.pix)
	parPhases := r.acc.parMS(v, ops)
	labelMS := ms(r.label) / ops
	v["par.unattributed_pct"] = 100 * (labelMS - parPhases) / labelMS

	// The single-threaded baseline: the same images on a 1-worker engine.
	one := parimg.NewParallelEngine(1)
	defer one.Close()
	var pix int64
	var wall time.Duration
	for _, in := range r.b.imgs {
		k := m.next.Add(1) - 1
		t0 := time.Now()
		out, err := r.labelOnce(one, in, k, false, nil)
		wall += time.Since(t0)
		if err == nil {
			err = r.check(out)
		}
		m.tally(k, err)
		pix += in.sq.stats.Pixels
	}
	v["par.speedup_vs_1w"] = plain.mpixPerS() / (float64(pix) / 1e6 / wall.Seconds())

	var probes []probeInput
	for _, in := range r.b.imgs {
		im, err := parimg.ReadPGM(bytes.NewReader(in.sq.pgm))
		if err != nil {
			return nil, err
		}
		probes = append(probes, probeInput{pix: im.Pix, rows: r.b.n, cols: r.b.n, mode: in.mode, comps: in.comps})
	}
	probeLayers(m, v, probes)

	wallMS := ms(tw.wall) / float64(len(tw.ops))
	decodeMS := ms(r.decode) / ops
	l.split = map[string]float64{
		"wall_ms":               wallMS,
		"image.decode_ms":       decodeMS,
		"par.strip_label_ms":    v["par.strip_label_ms"],
		"par.border_merge_ms":   v["par.border_merge_ms"],
		"par.relabel_ms":        v["par.relabel_ms"],
		"par.cleanup_ms":        v["par.cleanup_ms"],
		"par.unattributed_ms":   labelMS - parPhases,
		"bench.unattributed_ms": wallMS - decodeMS - labelMS,
	}
	return l, nil
}

func (r *residentInst) close() error { return r.eng.Close() }

// phaseAcc sums the obs documents of traced ops.
type phaseAcc struct {
	ops      int64
	wallNS   map[string]int64
	counters map[string]int64
}

func newPhaseAcc() *phaseAcc {
	return &phaseAcc{wallNS: map[string]int64{}, counters: map[string]int64{}}
}

func (a *phaseAcc) add(m *obs.Metrics) {
	a.ops++
	for _, ph := range m.Phases {
		if ph.Parent == "" {
			a.wallNS[ph.Name] += ph.WallNS
		}
	}
	for k, c := range m.Counters {
		a.counters[k] += c
	}
}

// phaseMS is phase name's summed wall time divided by ops, in ms.
func (a *phaseAcc) phaseMS(name string, ops float64) float64 {
	return float64(a.wallNS[name]) / 1e6 / ops
}

// parMS fills the par layer's per-op phase times and counters into v and
// returns the phases' summed time.
func (a *phaseAcc) parMS(v map[string]float64, ops float64) float64 {
	var sum float64
	for _, ph := range []string{"strip_label", "border_merge", "relabel", "cleanup"} {
		t := a.phaseMS(ph, ops)
		v["par."+ph+"_ms"] = t
		sum += t
	}
	v["par.border_edges"] = float64(a.counters["border_edges"]) / ops
	v["par.uf_finds"] = float64(a.counters["uf_finds"]) / ops
	v["par.relabeled_pixels"] = float64(a.counters["relabeled_pixels"]) / ops
	return sum
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
