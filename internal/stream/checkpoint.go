package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"parimg/internal/atomicio"
	"parimg/internal/errs"
	"parimg/internal/image"
	"parimg/internal/seq"
)

// The durable checkpoint record of the streaming census pass (DESIGN.md
// §15). One record captures everything pass 1 needs to continue from the
// next band as if it had never stopped:
//
//   - a fingerprint of the run: the input's raw header bytes, its
//     geometry (width, height, maxval, data offset), and the options that
//     shape the band decomposition and the labeling (connectivity, mode,
//     band rows) — resume refuses a checkpoint whose fingerprint drifted,
//     because band-local labels would no longer line up;
//   - the resume point: the index of the next uncommitted band;
//   - the census state at that point: the sparse union-find forest, the
//     per-fragment size map, the running strip-component/link/pair/edge
//     tallies, and the previous band's bottom pixel and lifted-label rows
//     against which the next band's seam is re-extracted.
//
// The on-disk form is little-endian binary: an 8-byte magic, a version
// word, the fields above, and a trailing CRC-32C over every preceding
// byte. Records are written crash-atomically (temp sibling + fsync +
// rename via internal/atomicio), so the path always holds either the
// previous complete record or the new one — a torn write is impossible to
// observe, and any bit flip that survives the filesystem fails the
// checksum and surfaces as ErrCheckpointCorrupt rather than wrong pixels.

// ckptMagic opens every checkpoint record.
var ckptMagic = [8]byte{'P', 'I', 'M', 'G', 'C', 'K', 'P', 'T'}

// ckptVersion is the current record version; readers reject others.
const ckptVersion = 1

// checkpoint is the in-memory form of one record.
type checkpoint struct {
	// Fingerprint.
	conn       image.Connectivity
	mode       seq.Mode
	bandRows   int
	width      int
	height     int
	maxVal     int
	dataOffset int64
	header     []byte // the input's raw bytes [0, dataOffset)

	// Resume point: the census pass continues at band index nextBand
	// (0-based); bands [0, nextBand) are committed below.
	nextBand int

	// Census state after band nextBand-1.
	stripComps int64
	links      int64
	pairs      int64
	edges      int64
	prevPix    []uint32 // bottom pixel row of band nextBand-1
	prevLab    []uint64 // bottom lifted-label row of band nextBand-1
	parent     map[uint64]uint64
	sizes      map[uint64]int64
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ckptEncoder writes little-endian fields, latching the first error.
type ckptEncoder struct {
	w   io.Writer
	buf [8]byte
	err error
}

func (e *ckptEncoder) raw(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *ckptEncoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.raw(e.buf[:4])
}

func (e *ckptEncoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:], v)
	e.raw(e.buf[:])
}

// writeFile commits the record to path crash-atomically.
func (c *checkpoint) writeFile(path string) error {
	return atomicio.WriteFile(path, c.encode)
}

// encode writes the record's on-disk form, checksum included, to w.
func (c *checkpoint) encode(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	crc := crc32.New(crcTable)
	e := &ckptEncoder{w: io.MultiWriter(bw, crc)}
	e.raw(ckptMagic[:])
	e.u32(ckptVersion)
	e.u32(uint32(c.conn))
	e.u32(uint32(c.mode))
	e.u64(uint64(c.bandRows))
	e.u64(uint64(c.width))
	e.u64(uint64(c.height))
	e.u64(uint64(c.maxVal))
	e.u64(uint64(c.dataOffset))
	e.u64(uint64(len(c.header)))
	e.raw(c.header)
	e.u64(uint64(c.nextBand))
	e.u64(uint64(c.stripComps))
	e.u64(uint64(c.links))
	e.u64(uint64(c.pairs))
	e.u64(uint64(c.edges))
	e.u64(uint64(len(c.prevPix)))
	for _, v := range c.prevPix {
		e.u32(v)
	}
	e.u64(uint64(len(c.prevLab)))
	for _, v := range c.prevLab {
		e.u64(v)
	}
	e.u64(uint64(len(c.parent)))
	for child, par := range c.parent {
		e.u64(child)
		e.u64(par)
	}
	e.u64(uint64(len(c.sizes)))
	for lab, size := range c.sizes {
		e.u64(lab)
		e.u64(uint64(size))
	}
	if e.err != nil {
		return e.err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := bw.Write(tail[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// ckptDecoder reads little-endian fields from a byte slice, latching
// truncation; callers check bad once at the end.
type ckptDecoder struct {
	data []byte
	off  int
	bad  bool
}

func (d *ckptDecoder) raw(n int) []byte {
	if d.bad || n < 0 || n > len(d.data)-d.off {
		d.bad = true
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *ckptDecoder) u32() uint32 {
	b := d.raw(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *ckptDecoder) u64() uint64 {
	b := d.raw(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// remaining returns the unread byte count, for pre-allocation bounds.
func (d *ckptDecoder) remaining() int { return len(d.data) - d.off }

// loadCheckpoint reads the checkpoint record at path and decodes it (see
// decodeCheckpoint), naming the file in any ErrCheckpointCorrupt.
func loadCheckpoint(path string) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, errs.Bad(op, "reading checkpoint: %v", err)
	}
	c, err := decodeCheckpoint(data)
	var ie *errs.InputError
	if errors.As(err, &ie) {
		ie.Detail = fmt.Sprintf("checkpoint %s: %s", path, ie.Detail)
	}
	return c, err
}

// decodeCheckpoint structurally validates and decodes one checkpoint
// record: magic, version, checksum, and field plausibility. Every failure
// is an ErrCheckpointCorrupt, and no slice or map is sized from a declared
// count before that count is checked against the bytes actually present,
// so a crafted record cannot force a large allocation. Fingerprint
// comparison against the live run is the caller's job
// (checkpoint.matches).
func decodeCheckpoint(data []byte) (*checkpoint, error) {
	if len(data) < len(ckptMagic)+8 {
		return nil, errs.CheckpointCorrupt(op, "record holds %d bytes, too short for a record", len(data))
	}
	if !bytes.Equal(data[:len(ckptMagic)], ckptMagic[:]) {
		return nil, errs.CheckpointCorrupt(op, "record does not start with the record magic")
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != ckptVersion {
		return nil, errs.CheckpointCorrupt(op, "record version %d; this build reads version %d", v, ckptVersion)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail); got != want {
		return nil, errs.CheckpointCorrupt(op, "record fails its checksum (stored %08x, computed %08x)", want, got)
	}

	d := &ckptDecoder{data: body, off: len(ckptMagic) + 4}
	c := &checkpoint{
		conn:       image.Connectivity(d.u32()),
		mode:       seq.Mode(d.u32()),
		bandRows:   int(d.u64()),
		width:      int(d.u64()),
		height:     int(d.u64()),
		maxVal:     int(d.u64()),
		dataOffset: int64(d.u64()),
	}
	hlen := int(d.u64())
	if hlen < 0 || hlen > image.MaxStreamHeaderBytes {
		return nil, errs.CheckpointCorrupt(op, "record declares a %d-byte input header", hlen)
	}
	c.header = append([]byte(nil), d.raw(hlen)...)
	c.nextBand = int(d.u64())
	c.stripComps = int64(d.u64())
	c.links = int64(d.u64())
	c.pairs = int64(d.u64())
	c.edges = int64(d.u64())

	npix := int(d.u64())
	if npix < 0 || npix > d.remaining()/4 {
		return nil, errs.CheckpointCorrupt(op, "record declares %d boundary pixels past its own size", npix)
	}
	c.prevPix = make([]uint32, npix)
	for i := range c.prevPix {
		c.prevPix[i] = d.u32()
	}
	nlab := int(d.u64())
	if nlab < 0 || nlab > d.remaining()/8 {
		return nil, errs.CheckpointCorrupt(op, "record declares %d boundary labels past its own size", nlab)
	}
	c.prevLab = make([]uint64, nlab)
	for i := range c.prevLab {
		c.prevLab[i] = d.u64()
	}
	nuf := int(d.u64())
	if nuf < 0 || nuf > d.remaining()/16 {
		return nil, errs.CheckpointCorrupt(op, "record declares %d forest links past its own size", nuf)
	}
	c.parent = make(map[uint64]uint64, nuf)
	for i := 0; i < nuf; i++ {
		child, par := d.u64(), d.u64()
		c.parent[child] = par
	}
	nsz := int(d.u64())
	if nsz < 0 || nsz > d.remaining()/16 {
		return nil, errs.CheckpointCorrupt(op, "record declares %d fragment sizes past its own size", nsz)
	}
	c.sizes = make(map[uint64]int64, nsz)
	for i := 0; i < nsz; i++ {
		lab, size := d.u64(), int64(d.u64())
		c.sizes[lab] = size
	}
	if d.bad || d.remaining() != 0 {
		return nil, errs.CheckpointCorrupt(op, "record is truncated or carries trailing bytes")
	}

	// Field plausibility: the checksum says the bytes are intact, but a
	// crafted record must still fail typed instead of driving the pipeline
	// into impossible state.
	if c.width < 1 || c.height < 1 || c.bandRows < 1 || c.dataOffset < 0 ||
		c.stripComps < 0 || c.links < 0 || c.pairs < 0 || c.edges < 0 {
		return nil, errs.CheckpointCorrupt(op, "record carries impossible geometry or tallies")
	}
	totalBands := (c.height + c.bandRows - 1) / c.bandRows
	if c.nextBand < 1 || c.nextBand > totalBands {
		return nil, errs.CheckpointCorrupt(op, "record resumes at band %d of %d", c.nextBand, totalBands)
	}
	if len(c.prevPix) != c.width || len(c.prevLab) != c.width {
		return nil, errs.CheckpointCorrupt(op, "record boundary rows hold %d/%d entries for width %d",
			len(c.prevPix), len(c.prevLab), c.width)
	}
	return c, nil
}

// matches compares the checkpoint's fingerprint against the live run:
// the freshly read input header bytes and geometry, and the resume
// options that shape the labeling. Any drift is an ErrCheckpointMismatch —
// resuming would replay seams against the wrong rows and silently emit
// wrong pixels, which is exactly what the typed refusal prevents.
func (c *checkpoint) matches(hdr image.PGMHeader, header []byte,
	conn image.Connectivity, mode seq.Mode, bandRows int) error {
	if c.width != hdr.Width || c.height != hdr.Height || c.maxVal != hdr.MaxVal || c.dataOffset != hdr.DataOffset {
		return errs.CheckpointMismatch(op,
			"checkpoint is for a %dx%d maxval-%d input (data at %d); this input is %dx%d maxval-%d (data at %d)",
			c.width, c.height, c.maxVal, c.dataOffset, hdr.Width, hdr.Height, hdr.MaxVal, hdr.DataOffset)
	}
	if !bytes.Equal(c.header, header) {
		return errs.CheckpointMismatch(op, "checkpoint was written for an input with different header bytes")
	}
	if c.conn != conn {
		return errs.CheckpointMismatch(op, "checkpoint was written with %v, resume asks for %v", c.conn, conn)
	}
	if c.mode != mode {
		return errs.CheckpointMismatch(op, "checkpoint was written in %v mode, resume asks for %v", c.mode, mode)
	}
	if c.bandRows != bandRows {
		return errs.CheckpointMismatch(op, "checkpoint was written with %d-row bands, resume asks for %d", c.bandRows, bandRows)
	}
	return nil
}

// readHeaderBytes fetches the input's raw header region [0, DataOffset) —
// the strongest practical fingerprint of "the same file": any edit to the
// header (dimensions, maxval, even a comment) changes these bytes.
func readHeaderBytes(r io.ReaderAt, hdr image.PGMHeader) ([]byte, error) {
	b := make([]byte, hdr.DataOffset)
	if _, err := r.ReadAt(b, 0); err != nil {
		return nil, errs.Bad(op, "re-reading the PGM header for the checkpoint fingerprint: %v", err)
	}
	return b, nil
}

// saveCheckpoint captures the pipeline's census state after band
// nextBand-1 committed and writes it durably; timed by the caller under
// the checkpoint_write phase.
func (p *pipeline) saveCheckpoint(nextBand int) error {
	c := &checkpoint{
		conn:       p.conn,
		mode:       p.mode,
		bandRows:   p.bandRows,
		width:      p.hdr.Width,
		height:     p.hdr.Height,
		maxVal:     p.hdr.MaxVal,
		dataOffset: p.hdr.DataOffset,
		header:     p.hdrBytes,
		nextBand:   nextBand,
		stripComps: p.stripComps,
		links:      p.links,
		pairs:      p.pairs,
		edges:      p.edges,
		prevPix:    p.prevPix,
		prevLab:    p.prevLab,
		parent:     p.uf.parent,
		sizes:      p.sizes,
	}
	if err := c.writeFile(p.ckptPath); err != nil {
		return errs.Bad(op, "writing checkpoint %s: %v", p.ckptPath, err)
	}
	return nil
}

// restore installs a validated checkpoint's state into the pipeline and
// returns the band index the census pass continues at.
func (p *pipeline) restore(c *checkpoint) int {
	p.stripComps = c.stripComps
	p.links = c.links
	p.pairs = c.pairs
	p.edges = c.edges
	p.prevPix = c.prevPix
	p.prevLab = c.prevLab
	p.uf.parent = c.parent
	p.sizes = c.sizes
	return c.nextBand
}
