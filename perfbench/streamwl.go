package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
	"parimg/internal/stream"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// streamBench is a prepared stream workload: a P5 file on disk and the
// oracle of its census (and, with labels, of its label PGM).
type streamBench struct {
	name       string
	path       string
	cols, rows int
	bandRows   int // 0: the pipeline's default band budget
	density    float64
	stats      rowStats
	comps      int64
	tiles      []tileOracle // stream-labels only
	header     []byte       // stream-labels only: the label PGM header
	tileBytes  int64        // stream-labels only: label PGM bytes per tile
}

// tileOracle is one background-separated tile of the stream-labels image:
// its component count and the CRC-32C of its rows of the label PGM.
type tileOracle struct {
	comps      int
	crc1, crc2 uint32 // one- and two-byte sample renderings
}

// prepareStreamCensus writes an n x n binary noise file bandwise and takes
// its census with seq.LabelBFS on a resident copy.
func prepareStreamCensus(cfg config, dir string) (bench, error) {
	n, bandRows := 8192, 0
	if cfg.tiny {
		n, bandRows = 96, 16
	}
	b := &streamBench{name: "census", path: filepath.Join(dir, "census.pgm"),
		cols: n, rows: n, bandRows: bandRows, density: 0.43}
	w, err := createPGM(b.path, n, n, 1)
	if err != nil {
		return nil, err
	}
	im := image.New(n)
	row := make([]byte, n)
	for i := 0; i < n; i++ {
		noiseRow(row, rowRNG(cfg.seed, "stream-census", i), b.density)
		b.stats.add(row)
		for j, v := range row {
			im.Pix[i*n+j] = uint32(v)
		}
		if err := w.write(row); err != nil {
			w.close()
			return nil, err
		}
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	b.comps = int64(seq.LabelBFS(im, image.Conn8, seq.Binary).Components())
	return b, nil
}

// prepareStreamLabels writes a tall image of stacked square noise tiles,
// each with a background last row so no component crosses tiles. The
// label PGM's dense ids are first-seen in row-major order, so tile t's
// rows are its own resident dense render plus the components of the tiles
// above it; the oracle keeps one CRC per tile of those rows.
func prepareStreamLabels(cfg config, dir string) (bench, error) {
	t, count, bandRows := 2048, 8, 0
	if cfg.tiny {
		t, count, bandRows = 48, 3, 20
	}
	b := &streamBench{name: "labels", path: filepath.Join(dir, "labels.pgm"),
		cols: t, rows: t * count, bandRows: bandRows, density: 0.75}
	w, err := createPGM(b.path, t, t*count, 1)
	if err != nil {
		return nil, err
	}
	row := make([]byte, t)
	var offset uint32
	for k := 0; k < count; k++ {
		im := image.New(t)
		for i := 0; i < t; i++ {
			if i < t-1 {
				noiseRow(row, rowRNG(cfg.seed, "stream-labels", k*t+i), b.density)
			} else {
				clear(row)
			}
			b.stats.add(row)
			for j, v := range row {
				im.Pix[i*t+j] = uint32(v)
			}
			if err := w.write(row); err != nil {
				w.close()
				return nil, err
			}
		}
		vals, comps := denseRender(seq.LabelBFS(im, image.Conn8, seq.Binary).Lab, offset)
		tile := tileOracle{comps: comps}
		one, two := make([]byte, len(vals)), make([]byte, 2*len(vals))
		for i, v := range vals {
			one[i] = byte(v)
			two[2*i], two[2*i+1] = byte(v>>8), byte(v)
		}
		tile.crc1 = crc32.Checksum(one, castagnoli)
		tile.crc2 = crc32.Checksum(two, castagnoli)
		b.tiles = append(b.tiles, tile)
		offset += uint32(comps)
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	b.comps = int64(offset)
	if b.comps > image.MaxPGMVal {
		return nil, fmt.Errorf("%d components exceed the label PGM ceiling", b.comps)
	}
	maxval := max(int(b.comps), 1)
	b.header = []byte(pgmHeader(b.cols, b.rows, maxval))
	b.tileBytes = int64(t) * int64(t)
	if maxval > 255 {
		b.tileBytes *= 2
	}
	return b, nil
}

func (b *streamBench) inputs() any {
	in := map[string]any{
		"image": b.name, "cols": b.cols, "rows": b.rows, "conn": 8, "band_rows": b.bandRows,
		"density": b.stats.density(), "components": b.comps, "runs": b.stats.Runs,
	}
	if b.tiles != nil {
		in["tiles"] = len(b.tiles)
	}
	return in
}

// newInstance opens the input file and parses its header.
func (b *streamBench) newInstance() (instance, error) {
	f, err := os.Open(b.path)
	if err != nil {
		return nil, err
	}
	hdr, err := image.ReadPGMHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &streamInst{b: b, f: f, hdr: hdr, rec: obs.NewRecorder(), acc: newPhaseAcc()}, nil
}

type streamInst struct {
	b   *streamBench
	f   *os.File
	hdr image.PGMHeader
	rec *obs.Recorder
	acc *phaseAcc
	// call and bands are the traced ops' summed stream.Label spans and
	// geometry band counts.
	call  time.Duration
	bands int64
}

type streamOut struct {
	res  *stream.Result
	sink *labelSink // nil for a census-only run
	pix  int64
}

func (o streamOut) kind() string  { return "stream.Label" }
func (o streamOut) pixels() int64 { return o.pix }

func (s *streamInst) clients() int { return 1 }

func (s *streamInst) do(k int64, corrupt bool, tr *tracer) (output, error) {
	opt := stream.Options{Conn: image.Conn8, Mode: seq.Binary, BandRows: s.b.bandRows}
	if tr != nil {
		s.rec.Reset()
		opt.Obs = s.rec
	}
	var out io.Writer
	var sink *labelSink
	if s.b.tiles != nil {
		sink = &labelSink{b: s.b, corrupt: corrupt}
		out = sink
	}
	t0 := time.Now()
	res, err := stream.Label(s.f, out, opt)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if tr != nil {
		tr.span("stream.Label", "op", k, t0, t1)
		s.call += t1.Sub(t0)
		s.bands += int64(res.Bands)
		s.acc.add(s.rec.Snapshot())
	}
	if corrupt && sink == nil {
		bad := *res
		bad.Components++
		res = &bad
	}
	return streamOut{res: res, sink: sink, pix: int64(s.b.cols) * int64(s.b.rows)}, nil
}

func (s *streamInst) check(o output) error {
	out := o.(streamOut)
	if out.res.Components != s.b.comps || out.res.Foreground != s.b.stats.Foreground {
		return fmt.Errorf("census %d components / %d foreground, oracle %d / %d",
			out.res.Components, out.res.Foreground, s.b.comps, s.b.stats.Foreground)
	}
	if out.sink != nil {
		return out.sink.verify()
	}
	return nil
}

func (s *streamInst) layers(m *measurer, _, tw *window) (*layers, error) {
	ops := float64(s.acc.ops)
	l := &layers{values: map[string]float64{}, split: map[string]float64{}}
	v := l.values
	var phases float64
	for _, ph := range []string{"band_decode", "band_label", "band_merge", "band_write"} {
		t := s.acc.phaseMS(ph, ops)
		v["stream."+ph+"_ms"] = t
		phases += t
	}
	callMS := ms(s.call) / ops
	v["stream.unattributed_ms"] = callMS - phases
	v["stream.label_passes"] = float64(s.acc.counters["bands"]) / float64(s.bands)
	v["stream.fragments"] = float64(s.acc.counters["strip_components"]) / ops
	v["stream.links"] = float64(s.acc.counters["border_links"]) / ops
	decoded := v["stream.label_passes"] * float64(s.b.cols) * float64(s.b.rows) * ops
	v["image.decode_ns_per_pix"] = float64(s.acc.wallNS["band_decode"]) / decoded

	// The layer probes run on the first band of the file.
	rows := s.hdr.Height
	if s.b.bandRows > 0 {
		rows = min(rows, s.b.bandRows)
	} else {
		rows = min(rows, max(stream.DefaultMaxBandPixels/s.hdr.Width, 1))
	}
	pix := make([]uint32, rows*s.hdr.Width)
	if _, err := s.hdr.ReadRows(s.f, 0, rows, pix, nil); err != nil {
		return nil, err
	}
	probeLayers(m, v, []probeInput{{pix: pix, rows: rows, cols: s.hdr.Width, mode: seq.Binary, comps: -1}})

	wallMS := ms(tw.wall) / float64(len(tw.ops))
	l.split = map[string]float64{
		"wall_ms":                wallMS,
		"stream.band_decode_ms":  v["stream.band_decode_ms"],
		"stream.band_label_ms":   v["stream.band_label_ms"],
		"stream.band_merge_ms":   v["stream.band_merge_ms"],
		"stream.band_write_ms":   v["stream.band_write_ms"],
		"stream.unattributed_ms": callMS - phases,
		"bench.unattributed_ms":  wallMS - callMS,
	}
	return l, nil
}

func (s *streamInst) close() error { return s.f.Close() }

// labelSink is the writer stream-labels hands stream.Label: it checks the
// header and keeps a CRC-32C of each tile's rows instead of storing the
// output. With corrupt set it flips the first pixel byte it sees.
type labelSink struct {
	b       *streamBench
	corrupt bool
	hdr     []byte
	inTile  int64
	crc     uint32
	crcs    []uint32
	extra   int64
}

func (s *labelSink) Write(p []byte) (int, error) {
	n := len(p)
	if need := len(s.b.header) - len(s.hdr); need > 0 {
		take := min(need, len(p))
		s.hdr = append(s.hdr, p[:take]...)
		p = p[take:]
	}
	if s.corrupt && len(p) > 0 {
		p = append([]byte{p[0] ^ 1}, p[1:]...)
		s.corrupt = false
	}
	for len(p) > 0 {
		if len(s.crcs) == len(s.b.tiles) {
			s.extra += int64(len(p))
			break
		}
		take := min(s.b.tileBytes-s.inTile, int64(len(p)))
		s.crc = crc32.Update(s.crc, castagnoli, p[:take])
		s.inTile += take
		p = p[take:]
		if s.inTile == s.b.tileBytes {
			s.crcs = append(s.crcs, s.crc)
			s.crc, s.inTile = 0, 0
		}
	}
	return n, nil
}

// verify compares what was written with the oracle.
func (s *labelSink) verify() error {
	if !bytes.Equal(s.hdr, s.b.header) {
		return fmt.Errorf("label PGM header %q, oracle %q", s.hdr, s.b.header)
	}
	if len(s.crcs) != len(s.b.tiles) || s.extra != 0 || s.inTile != 0 {
		return fmt.Errorf("label PGM body: %d whole tiles + %d bytes, %d extra; oracle %d tiles",
			len(s.crcs), s.inTile, s.extra, len(s.b.tiles))
	}
	for i, t := range s.b.tiles {
		want := t.crc1
		if s.b.tileBytes > int64(s.b.cols)*int64(s.b.cols) {
			want = t.crc2
		}
		if s.crcs[i] != want {
			return fmt.Errorf("label PGM rows of tile %d differ from its resident dense render", i)
		}
	}
	return nil
}
