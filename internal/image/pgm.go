package image

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"parimg/internal/errs"
)

// WritePGM writes the image as a binary (P5) portable greymap with the
// given maximum grey value (pixels are clamped). Useful for eyeballing the
// generated test images and the outputs of the example programs.
func (im *Image) WritePGM(w io.Writer, maxVal int) error {
	if maxVal < 1 || maxVal > 255 {
		return errs.Bad("image.WritePGM", "PGM maxval %d outside [1,255]", maxVal)
	}
	if err := im.Check(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n%d\n", im.N, im.N, maxVal); err != nil {
		return err
	}
	for _, v := range im.Pix {
		b := v
		if b > uint32(maxVal) {
			b = uint32(maxVal)
		}
		if err := bw.WriteByte(byte(b)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// pgmToken reads the next header token: whitespace is skipped, and a '#'
// starts a comment running to the end of the line (the standard PGM comment
// syntax). The whitespace byte terminating the token is consumed, which for
// the final header token (maxval) is exactly the single separator byte the
// format requires before the pixel data.
func pgmToken(br *bufio.Reader) (string, error) {
	// Skip whitespace and comment lines.
	for {
		b, err := br.ReadByte()
		if err != nil {
			return "", err
		}
		if b == '#' {
			if _, err := br.ReadString('\n'); err != nil {
				return "", err
			}
			continue
		}
		if !isPGMSpace(b) {
			if err := br.UnreadByte(); err != nil {
				return "", err
			}
			break
		}
	}
	// Accumulate the token up to (and consuming) the next whitespace byte.
	var tok []byte
	for {
		b, err := br.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
		if isPGMSpace(b) {
			break
		}
		tok = append(tok, b)
		if len(tok) > 32 {
			return "", errs.Bad("image.ReadPGM", "header token longer than 32 bytes")
		}
	}
	return string(tok), nil
}

// isPGMSpace reports whether b is PGM header whitespace.
func isPGMSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\v' || b == '\f'
}

// pgmInt reads one non-negative decimal header field.
func pgmInt(br *bufio.Reader, field string) (int, error) {
	tok, err := pgmToken(br)
	if err != nil {
		return 0, errs.Bad("image.ReadPGM", "reading %s: %v", field, err)
	}
	v, err := strconv.Atoi(tok)
	if err != nil || v < 0 {
		return 0, errs.Bad("image.ReadPGM", "%s %q is not a non-negative integer", field, tok)
	}
	return v, nil
}

// MaxPGMVal is the largest maxval the P5 format can express: samples above
// 255 are stored as two big-endian bytes, and the spec caps maxval at two
// bytes' worth.
const MaxPGMVal = 65535

// ReadPGM reads a binary (P5) portable greymap, including headers with '#'
// comment lines. The image must be square with side in (0, MaxSide]. Both
// sample widths of the format are supported: one byte per pixel for maxval
// in [1,255] and — per the spec — two big-endian bytes per pixel for maxval
// in [256,65535], which is the form the labeling service's own 16-bit label
// PGMs take, so service output round-trips back through this reader. All
// failures — a bad magic, a malformed or truncated header, non-square or
// oversized dimensions, a maxval outside [1,65535], or missing pixel data —
// return typed errors (never a panic), and pixel storage is allocated
// incrementally as rows arrive, so a crafted header cannot force an
// allocation larger than the actual input.
func ReadPGM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	w, h, maxVal, err := readPGMHeader(br, "image.ReadPGM")
	if err != nil {
		return nil, err
	}
	if w != h {
		return nil, errs.Geometry("image.ReadPGM", w, 0,
			"PGM is %dx%d; only square images are supported", w, h)
	}
	if err := checkSide("image.ReadPGM", w); err != nil {
		return nil, err
	}
	// The pixel area is bounded (w == h <= MaxSide), but grow the pixel
	// array as rows arrive anyway, doubling its capacity up to w*h: a short
	// stream then fails having committed at most twice what it delivered,
	// instead of w*h words up front on the word of a 20-byte header.
	sampleBytes := pgmSampleBytes(maxVal)
	im := &Image{N: w, Pix: make([]uint32, 0, min(w*h, 1<<20))}
	row := make([]byte, w*sampleBytes)
	for y := 0; y < h; y++ {
		if _, err := io.ReadFull(br, row); err != nil {
			return nil, errs.Bad("image.ReadPGM", "reading pixel row %d of %d: %v", y, h, err)
		}
		off := len(im.Pix)
		if off+w > cap(im.Pix) {
			grown := make([]uint32, off, min(max(2*cap(im.Pix), off+w), w*h))
			copy(grown, im.Pix)
			im.Pix = grown
		}
		im.Pix = im.Pix[:off+w]
		dst := im.Pix[off:]
		if sampleBytes == 1 {
			for j, b := range row {
				dst[j] = uint32(b)
			}
		} else {
			for j := range dst {
				dst[j] = uint32(row[2*j])<<8 | uint32(row[2*j+1])
			}
		}
	}
	return im, nil
}

// readPGMHeader parses the P5 magic and the three header fields, validating
// the maxval range shared by the resident and streaming readers. The
// dimension checks differ per reader (square+MaxSide here, rectangular
// bounds for the streaming decoder) and stay with the callers.
func readPGMHeader(br *bufio.Reader, op string) (w, h, maxVal int, err error) {
	magic, err := pgmToken(br)
	if err != nil {
		return 0, 0, 0, errs.Bad(op, "reading magic: %v", err)
	}
	if magic != "P5" {
		return 0, 0, 0, errs.Bad(op, "unsupported PGM magic %q", magic)
	}
	if w, err = pgmInt(br, "width"); err != nil {
		return 0, 0, 0, err
	}
	if h, err = pgmInt(br, "height"); err != nil {
		return 0, 0, 0, err
	}
	if maxVal, err = pgmInt(br, "maxval"); err != nil {
		return 0, 0, 0, err
	}
	if maxVal < 1 || maxVal > MaxPGMVal {
		return 0, 0, 0, errs.Bad(op, "PGM maxval %d outside [1,%d]", maxVal, MaxPGMVal)
	}
	return w, h, maxVal, nil
}

// pgmSampleBytes returns the per-sample byte width the P5 format prescribes
// for a maxval: one byte up to 255, two big-endian bytes beyond.
func pgmSampleBytes(maxVal int) int {
	if maxVal > 255 {
		return 2
	}
	return 1
}
