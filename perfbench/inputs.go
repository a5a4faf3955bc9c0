package main

import (
	"bufio"
	"fmt"
	"os"

	"parimg/internal/image"
)

// rng is SplitMix64: a small generator whose stream is fixed by this file,
// so the same seed gives the same inputs on every Go release.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// rowRNG derives an independent generator for one row of one input.
func rowRNG(seed uint64, input string, row int) *rng {
	h := uint64(14695981039346656037)
	for i := 0; i < len(input); i++ {
		h = (h ^ uint64(input[i])) * 1099511628211
	}
	r := rng{s: seed ^ h}
	r.s ^= uint64(row) * 0xd1b54a32d192ed03
	r.next()
	return &r
}

// noiseRow fills dst with binary noise: each pixel is 1 with probability
// density (quantised to 1/65536), four pixels per generator step.
func noiseRow(dst []byte, r *rng, density float64) {
	t := uint64(density * 65536)
	for j := 0; j < len(dst); j += 4 {
		x := r.next()
		for b := 0; b < 4 && j+b < len(dst); b++ {
			if x>>(16*b)&0xffff < t {
				dst[j+b] = 1
			} else {
				dst[j+b] = 0
			}
		}
	}
}

// greyRow fills dst with uniform grey levels in [0, 4), 32 pixels per
// generator step.
func greyRow(dst []byte, r *rng) {
	for j := 0; j < len(dst); j += 32 {
		x := r.next()
		for b := 0; b < 32 && j+b < len(dst); b++ {
			dst[j+b] = byte(x >> (2 * b) & 3)
		}
	}
}

// pgmHeader is the P5 header of a cols x rows image with one-byte samples.
func pgmHeader(cols, rows, maxval int) string {
	return fmt.Sprintf("P5\n%d %d\n%d\n", cols, rows, maxval)
}

// rowStats accumulates the input properties the record reports.
type rowStats struct {
	Pixels     int64 `json:"pixels"`
	Foreground int64 `json:"foreground"`
	Runs       int64 `json:"runs"` // maximal runs of equal non-zero value within a row
}

func (s *rowStats) add(row []byte) {
	s.Pixels += int64(len(row))
	var prev byte
	for _, v := range row {
		if v != 0 {
			s.Foreground++
			if v != prev {
				s.Runs++
			}
		}
		prev = v
	}
}

func (s rowStats) density() float64 { return float64(s.Foreground) / float64(s.Pixels) }

// squareInput is one resident n x n input: its PGM encoding and the same
// pixels as an image for the oracle (built directly from the generated
// bytes, not through the decoder under test).
type squareInput struct {
	pgm   []byte
	im    *image.Image
	stats rowStats
}

// makeSquare generates an n x n input row by row with gen.
func makeSquare(n, maxval int, gen func(row []byte, i int)) squareInput {
	hdr := pgmHeader(n, n, maxval)
	pgm := make([]byte, len(hdr), len(hdr)+n*n)
	copy(pgm, hdr)
	im := image.New(n)
	var st rowStats
	row := make([]byte, n)
	for i := 0; i < n; i++ {
		gen(row, i)
		st.add(row)
		pgm = append(pgm, row...)
		for j, v := range row {
			im.Pix[i*n+j] = uint32(v)
		}
	}
	return squareInput{pgm: pgm, im: im, stats: st}
}

// encodeSquare encodes an existing image (a catalog pattern or the DARPA
// scene) as a one-byte P5 PGM.
func encodeSquare(im *image.Image, maxval int) squareInput {
	return makeSquare(im.N, maxval, func(row []byte, i int) {
		for j := range row {
			row[j] = byte(im.Pix[i*im.N+j])
		}
	})
}

// fileWriter writes a P5 file band by band.
type fileWriter struct {
	f  *os.File
	bw *bufio.Writer
}

func createPGM(path string, cols, rows, maxval int) (*fileWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &fileWriter{f: f, bw: bufio.NewWriterSize(f, 1<<20)}
	if _, err := w.bw.WriteString(pgmHeader(cols, rows, maxval)); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *fileWriter) write(row []byte) error {
	_, err := w.bw.Write(row)
	return err
}

// close flushes the file and syncs it, so the kernel's write-back of the
// fresh pages happens now and not during the measured window.
func (w *fileWriter) close() error {
	err := w.bw.Flush()
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// denseRender maps a seed labeling to the label PGM's sample values:
// labels renumbered 1.. in row-major first-seen order, background 0, plus
// offset — the rendering the service and the stream pipeline emit.
func denseRender(lab []uint32, offset uint32) (vals []uint32, comps int) {
	vals = make([]uint32, len(lab))
	ids := make(map[uint32]uint32)
	for i, l := range lab {
		if l == 0 {
			continue
		}
		id, ok := ids[l]
		if !ok {
			id = uint32(len(ids)) + 1
			ids[l] = id
		}
		vals[i] = id + offset
	}
	return vals, len(ids)
}

// labelPGM is the label PGM of vals with maxval comps (at least 1).
func labelPGM(cols, rows int, vals []uint32, comps int) []byte {
	maxval := max(comps, 1)
	out := []byte(pgmHeader(cols, rows, maxval))
	for _, v := range vals {
		if maxval > 255 {
			out = append(out, byte(v>>8), byte(v))
		} else {
			out = append(out, byte(v))
		}
	}
	return out
}
