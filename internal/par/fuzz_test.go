package par

import (
	"testing"

	"parimg/internal/image"
	"parimg/internal/seq"
)

// FuzzRunLabelMatchesBFS asserts the run engine's labeling is byte-
// identical to seq.LabelBFS on arbitrary images in both modes, across
// Conn4/Conn8, worker counts 1-8 and both border-merge backends (the
// union-find tree and the Shiloach-Vishkin rounds run on every input). The image side, connectivity, worker
// count and mode are fuzzed alongside the pixel data. In binary mode the
// data is consumed one bit per pixel so the fuzzer controls the exact run
// structure (word-boundary runs, alternating columns, solid blocks); in
// grey mode it is consumed one byte per pixel so the fuzzer controls the
// grey-level boundaries the run extractor and the touching-run unite sweep
// must respect, and every 255 is lifted past a byte to also drive the
// wide-strip full-width fallback. The seeded corpus (f.Add plus
// testdata/fuzz) doubles as a regression test under plain `go test`; run
// `go test -fuzz FuzzRunLabelMatchesBFS ./internal/par` to explore.
func FuzzRunLabelMatchesBFS(f *testing.F) {
	f.Add(uint8(1), false, uint8(1), false, []byte{0x01})
	f.Add(uint8(8), true, uint8(3), false, []byte{0xff, 0x00, 0xaa, 0x55, 0x0f, 0xf0, 0x81, 0x7e})
	f.Add(uint8(16), false, uint8(4), false, []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x80})
	f.Add(uint8(65), true, uint8(8), false, []byte{0xff})                   // side straddles a word boundary
	f.Add(uint8(33), true, uint8(2), false, []byte{0x55, 0x55, 0x55, 0x55}) // alternating columns
	f.Add(uint8(12), false, uint8(7), false, []byte{})
	// Grey seeds: touching runs of distinct levels, a word-boundary level
	// change, and a wide (255 -> 511) level next to its low-byte alias.
	f.Add(uint8(4), true, uint8(2), true, []byte{5, 5, 0, 0, 7, 7, 5, 5, 1, 2, 1, 2, 2, 2, 2, 2})
	f.Add(uint8(9), false, uint8(3), true, []byte{1, 1, 1, 1, 1, 1, 1, 1, 2})
	f.Add(uint8(2), true, uint8(1), true, []byte{255, 0, 255, 1})
	f.Fuzz(func(t *testing.T, side uint8, conn8 bool, workers uint8, grey bool, bits []byte) {
		n := int(side)%80 + 1
		w := int(workers)%8 + 1
		conn := image.Conn4
		if conn8 {
			conn = image.Conn8
		}
		mode := seq.Binary
		im := image.New(n)
		if grey {
			mode = seq.Grey
			if len(bits) > 0 {
				for i := range im.Pix {
					v := uint32(bits[i%len(bits)])
					if v == 255 {
						v += 256 // exceeds a byte: forces the wide fallback
					}
					im.Pix[i] = v
				}
			}
		} else if len(bits) > 0 {
			for i := range im.Pix {
				if bits[(i/8)%len(bits)]>>(uint(i)%8)&1 != 0 {
					im.Pix[i] = 1
				}
			}
		}
		want := seq.LabelBFS(im, conn, mode)
		got := label(t, NewEngine(w), im, conn, mode)
		for i := range want.Lab {
			if got.Lab[i] != want.Lab[i] {
				t.Fatalf("n=%d conn=%v workers=%d grey=%v: pixel %d: got %d, want %d",
					n, conn, w, grey, i, got.Lab[i], want.Lab[i])
			}
		}
	})
}

// FuzzGreyRunLabelMatchesBFS is the grey-focused leg: every input is a
// grey image with one byte per pixel, so all fuzzing effort goes into
// grey-level boundaries — touching runs of distinct levels, diagonal
// adjacency across touching pairs under Conn8, word-boundary level changes
// — instead of splitting time with binary inputs. Zero bytes are
// background; a 255 is lifted past a byte so the wide-strip fallback stays
// under fuzz too.
func FuzzGreyRunLabelMatchesBFS(f *testing.F) {
	f.Add(uint8(3), true, uint8(1), []byte{5, 5, 0, 0, 7, 7, 5, 5, 1, 2, 1, 2, 2, 2, 2, 2})
	f.Add(uint8(7), false, uint8(4), []byte{1, 1, 1, 1, 1, 1, 1, 1, 2, 3})
	f.Add(uint8(64), true, uint8(8), []byte{255, 1, 255, 0})
	f.Add(uint8(16), true, uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, side uint8, conn8 bool, workers uint8, greys []byte) {
		n := int(side)%80 + 1
		w := int(workers)%8 + 1
		conn := image.Conn4
		if conn8 {
			conn = image.Conn8
		}
		im := image.New(n)
		if len(greys) > 0 {
			for i := range im.Pix {
				v := uint32(greys[i%len(greys)])
				if v == 255 {
					v += 256 // exceeds a byte: forces the wide fallback
				}
				im.Pix[i] = v
			}
		}
		want := seq.LabelBFS(im, conn, seq.Grey)
		got := label(t, NewEngine(w), im, conn, seq.Grey)
		for i := range want.Lab {
			if got.Lab[i] != want.Lab[i] {
				t.Fatalf("n=%d conn=%v workers=%d: pixel %d: got %d, want %d",
					n, conn, w, i, got.Lab[i], want.Lab[i])
			}
		}
	})
}
