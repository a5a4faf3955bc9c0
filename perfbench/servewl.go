package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync"
	"time"

	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
	"parimg/internal/serve"
)

// serveRequest is one request body the serve-mixed clients send, with
// what the response must hold.
type serveRequest struct {
	kind   string
	query  string
	sq     squareInput
	mode   seq.Mode
	comps  int
	census []image.ComponentStat // census=1 requests
	pgm    []byte                // out=pgm requests: the seq render
}

type serveBench struct {
	darpa, noise *serveRequest
	patterns     []*serveRequest
}

// prepareServe builds the three request kinds: the DARPA scene as a grey
// census request, binary noise as a JSON request, and the nine catalog
// patterns as label PGM requests, each with its seq.LabelBFS oracle.
func prepareServe(cfg config, _ string) (bench, error) {
	darpaSide, n := 512, 1024
	if cfg.tiny {
		darpaSide, n = 64, 64
	}
	darpa := image.DARPAScene(darpaSide, 256, cfg.seed)
	b := &serveBench{
		darpa: &serveRequest{kind: "darpa-census", query: "mode=grey&census=1", sq: encodeSquare(darpa, 255), mode: seq.Grey},
		noise: &serveRequest{kind: "noise-json", query: "mode=binary", mode: seq.Binary,
			sq: makeSquare(n, 1, func(row []byte, i int) { noiseRow(row, rowRNG(cfg.seed, "serve-noise", i), 0.43) })},
	}
	for _, id := range image.AllPatterns() {
		b.patterns = append(b.patterns, &serveRequest{kind: "pattern-pgm", query: "mode=binary&out=pgm",
			sq: encodeSquare(image.Generate(id, n), 1), mode: seq.Binary})
	}
	for _, r := range b.all() {
		l := seq.LabelBFS(r.sq.im, image.Conn8, r.mode)
		r.comps = l.Components()
		switch r.kind {
		case "darpa-census":
			r.census = l.Census(r.sq.im)
		case "pattern-pgm":
			vals, comps := denseRender(l.Lab, 0)
			r.pgm = labelPGM(r.sq.im.N, r.sq.im.N, vals, comps)
		}
	}
	return b, nil
}

func (b *serveBench) all() []*serveRequest {
	return append([]*serveRequest{b.darpa, b.noise}, b.patterns...)
}

func (b *serveBench) inputs() any {
	var out []map[string]any
	for _, r := range b.all() {
		out = append(out, map[string]any{
			"image": r.kind, "cols": r.sq.im.N, "rows": r.sq.im.N, "conn": 8, "query": r.query,
			"density": r.sq.stats.density(), "components": r.comps, "runs": r.sq.stats.Runs,
		})
	}
	return out
}

// request picks op k's request: the three kinds in turn, the patterns in
// turn within theirs.
func (b *serveBench) request(k int64) *serveRequest {
	switch k % 3 {
	case 0:
		return b.darpa
	case 1:
		return b.noise
	}
	return b.patterns[(k/3)%int64(len(b.patterns))]
}

// newInstance starts serve.New(Config{}) behind a loopback listener and a
// keep-alive client.
func (b *serveBench) newInstance() (instance, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &serveInst{
		b:      b,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		tr:     &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		url:    "http://" + ln.Addr().String() + "/label?",
	}
	s.client = &http.Client{Transport: s.tr}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

type serveInst struct {
	b      *serveBench
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	tr     *http.Transport
	client *http.Client
	url    string
	// before is the server's aggregate document when the traced window
	// opened; layers diffs the closing one against it.
	once   sync.Once
	before *obs.Metrics
}

type serveOut struct {
	req  *serveRequest
	body []byte
}

func (o serveOut) kind() string  { return o.req.kind }
func (o serveOut) pixels() int64 { return o.req.sq.stats.Pixels }

func (s *serveInst) clients() int { return 2 }

func (s *serveInst) do(k int64, corrupt bool, tr *tracer) (output, error) {
	if tr != nil {
		s.once.Do(func() { s.before = s.srv.MetricsDocs()[0] })
	}
	req := s.b.request(k)
	t0 := time.Now()
	resp, err := s.client.Post(s.url+req.query, "image/x-portable-graymap", bytes.NewReader(req.sq.pgm))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	tr.span("POST /label", "op", k, t0, time.Now())
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", req.kind, resp.StatusCode, bytes.TrimSpace(body))
	}
	if corrupt && len(body) > 0 {
		body[len(body)/2] ^= 1
	}
	return serveOut{req: req, body: body}, nil
}

func (s *serveInst) check(o output) error {
	out := o.(serveOut)
	r := out.req
	if r.pgm != nil {
		if !bytes.Equal(out.body, r.pgm) {
			return fmt.Errorf("%s: label PGM differs from the seq render", r.kind)
		}
		return nil
	}
	var got struct {
		Components int                   `json:"components"`
		N          int                   `json:"n"`
		Census     []image.ComponentStat `json:"census"`
	}
	if err := json.Unmarshal(out.body, &got); err != nil {
		return fmt.Errorf("%s: response: %v", r.kind, err)
	}
	if got.Components != r.comps || got.N != r.sq.im.N {
		return fmt.Errorf("%s: %d components on side %d, oracle %d on %d", r.kind, got.Components, got.N, r.comps, r.sq.im.N)
	}
	if r.census != nil && !reflect.DeepEqual(got.Census, r.census) {
		return fmt.Errorf("%s: census differs from the seq census", r.kind)
	}
	return nil
}

func (s *serveInst) layers(m *measurer, _, tw *window) (*layers, error) {
	if s.before == nil {
		return nil, errors.New("no traced request reached the server")
	}
	after := s.srv.MetricsDocs()[0]
	phase := func(name string) float64 {
		return float64(after.WallPhaseNS(name) - s.before.WallPhaseNS(name))
	}
	counter := func(name string) float64 { return float64(after.Counters[name] - s.before.Counters[name]) }
	runs := counter("runs")
	perReq := func(ns float64) float64 { return ns / 1e6 / runs }

	l := &layers{values: map[string]float64{}, split: map[string]float64{}}
	v := l.values
	v["image.decode_ns_per_pix"] = phase("decode") / float64(tw.pix)
	var label float64
	for _, ph := range []string{"strip_label", "border_merge", "relabel", "cleanup"} {
		v["par."+ph+"_ms"] = perReq(phase(ph))
		label += phase(ph)
	}
	v["par.border_edges"] = counter("border_edges") / runs
	v["par.uf_finds"] = counter("uf_finds") / runs
	v["par.relabeled_pixels"] = counter("relabeled_pixels") / runs

	total := float64(after.TotalNS - s.before.TotalNS)
	attributed := phase("decode") + phase("queue_wait") + label + phase("census")
	var client time.Duration
	for _, o := range tw.ops {
		client += o.lat
	}
	clientMS := ms(client) / float64(len(tw.ops))
	v["serve.decode_ms_mean"] = perReq(phase("decode"))
	v["serve.queue_wait_ms_mean"] = perReq(phase("queue_wait"))
	v["serve.label_ms_mean"] = perReq(label)
	v["serve.census_ms_mean"] = perReq(phase("census"))
	v["serve.unattributed_ms_mean"] = perReq(total - attributed)
	v["serve.transport_ms_mean"] = clientMS - perReq(total)
	v["serve.rejected"] = counter("rejected")

	var probes []probeInput
	for _, r := range []*serveRequest{s.b.noise, s.b.darpa} {
		probes = append(probes, probeInput{pix: r.sq.im.Pix, rows: r.sq.im.N, cols: r.sq.im.N, mode: r.mode, comps: r.comps})
	}
	probeLayers(m, v, probes)

	l.split = map[string]float64{
		"wall_ms":                    clientMS,
		"serve.decode_ms_mean":       v["serve.decode_ms_mean"],
		"serve.queue_wait_ms_mean":   v["serve.queue_wait_ms_mean"],
		"serve.label_ms_mean":        v["serve.label_ms_mean"],
		"serve.census_ms_mean":       v["serve.census_ms_mean"],
		"serve.unattributed_ms_mean": v["serve.unattributed_ms_mean"],
		"serve.transport_ms_mean":    v["serve.transport_ms_mean"],
	}
	return l, nil
}

func (s *serveInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	s.tr.CloseIdleConnections()
	s.srv.Close()
	return err
}
