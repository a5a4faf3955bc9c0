package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"parimg/internal/errs"
	"parimg/internal/image"
)

// FuzzStreamPGM throws arbitrary bytes at the full out-of-core pipeline:
// header probe, band decoding (both sample widths), labeling, merging and
// label-PGM emission. Beyond "no panics, typed errors only", every input
// the pipeline accepts is cross-checked against the resident tile labeler
// — the streaming result must be pixel-identical however the fuzzer
// shapes the geometry. The committed corpus pins the two bug classes this
// package's PR fixed: a two-byte-per-sample P5 (which the resident reader
// used to reject) and a giant-dimension header over a short body (the
// allocate-before-validate overflow class).
func FuzzStreamPGM(f *testing.F) {
	f.Add([]byte("P5\n3 2\n255\nabcdef"))
	f.Add([]byte("P5\n2 2\n65535\n\x01\x00\x00\x02\xff\xff\x00\x00"))
	f.Add([]byte("P5\n# comment\n1 7\n1\n\x00\x01\x00\x01\x01\x00\x01"))
	f.Add([]byte("P5\n2147483647 2147483647\n255\nx"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		hdr, err := image.ReadPGMHeader(r)
		if err != nil {
			return // malformed header: rejected with a typed error
		}
		if hdr.Pixels() > 1<<18 {
			return // data cannot back it (probe rejects); keep iterations fast
		}
		var out bytes.Buffer
		res, err := Label(r, &out, Options{Conn: image.Conn4, BandRows: 3, TopK: 3})
		if err != nil {
			return // truncated or overflowing input: typed error, no output
		}
		pix := make([]uint32, hdr.Pixels())
		if _, err := hdr.ReadRows(r, 0, hdr.Height, pix, nil); err != nil {
			t.Fatalf("accepted input failed a full decode: %v", err)
		}
		lab, comps := residentLabels(pix, hdr.Height, hdr.Width, image.Conn4, 0)
		if res.Components != int64(comps) {
			t.Fatalf("stream found %d components, resident found %d", res.Components, comps)
		}
		if want := renderDense(lab, hdr.Height, hdr.Width, comps); !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("stream label PGM differs from resident rendering")
		}
	})
}

// FuzzCheckpoint throws arbitrary bytes at the checkpoint record decoder.
// It must never panic, must answer with either a record or
// ErrCheckpointCorrupt, and must not allocate more than a small multiple
// of the input: every declared count is checked against the bytes present
// before anything is sized from it. A record it accepts must survive an
// encode/decode round trip unchanged. The seeds are two valid records, a
// census-only one and a top-K one with a non-empty heap, and the mutations
// of the corruption table in TestCorruptCheckpointRejected.
func FuzzCheckpoint(f *testing.F) {
	record := func(im *image.Image, topK int) []byte {
		pgm := encodePGM(im.Pix, im.N, im.N, 255)
		ckpt := filepath.Join(f.TempDir(), "run.ckpt")
		if _, err := Label(bytes.NewReader(pgm), nil, Options{
			BandRows: 5, CheckpointEvery: 2, Checkpoint: ckpt, TopK: topK}); err != nil {
			f.Fatalf("checkpointed census: %v", err)
		}
		data, err := os.ReadFile(ckpt)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := record(image.Generate(image.ConcentricCircles, 32), 0)
	withTop := record(image.RandomBinary(32, 0.3, 5), 3)
	if c, err := decodeCheckpoint(withTop); err != nil || len(c.top) == 0 {
		f.Fatalf("top-K seed record: %v, want a decodable record with a non-empty heap", err)
	}
	mutate := func(m func([]byte) []byte) []byte { return m(append([]byte(nil), valid...)) }
	for _, seed := range [][]byte{
		valid,
		withTop,
		nil,
		mutate(func(b []byte) []byte { return b[:8] }),
		mutate(func(b []byte) []byte { return b[:len(b)/2] }),
		mutate(func(b []byte) []byte { return b[:len(b)-1] }),
		mutate(func(b []byte) []byte { b[0] ^= 0x40; return b }),
		mutate(func(b []byte) []byte { b[8] ^= 0xFF; return b }),
		mutate(func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }),
		mutate(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }),
		mutate(func(b []byte) []byte { return append(b, 0xEE) }),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		if len(data) >= 4 {
			// The same bytes with a correct checksum: random mutations
			// almost never pass the CRC, and this lets the fuzzer reach
			// the field decoding and the count bounds behind it.
			body := data[:len(data)-4]
			checkDecode(t, binary.LittleEndian.AppendUint32(
				append([]byte(nil), body...), crc32.Checksum(body, crcTable)))
		}
	})
}

// checkDecode asserts FuzzCheckpoint's properties for one input.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := decodeCheckpoint(data)
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20+32*uint64(len(data)) {
		t.Fatalf("decoding %d bytes allocated %d", len(data), grown)
	}
	if err != nil {
		if !errors.Is(err, errs.ErrCheckpointCorrupt) || c != nil {
			t.Fatalf("decode returned (%v, %v), want (nil, ErrCheckpointCorrupt)", c, err)
		}
		return
	}
	var buf bytes.Buffer
	if err := c.encode(&buf); err != nil {
		t.Fatalf("re-encoding an accepted record: %v", err)
	}
	again, err := decodeCheckpoint(buf.Bytes())
	if err != nil {
		t.Fatalf("re-encoded record rejected: %v", err)
	}
	if !reflect.DeepEqual(again, c) {
		t.Fatal("record changed across an encode/decode round trip")
	}
}
