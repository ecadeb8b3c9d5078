// Package wire owns how the repository's binary formats — GSB1 dataset
// streams, GSO1 outcome logs and GSF1 fragments — write and read
// length-prefixed data: varints, float64s, strings and frame sequences.
// It is the only package that reads a length prefix, so one rule holds
// for every format: decoding allocates in proportion to the bytes
// actually received, never to what a prefix claims.
//
// Encoding: integers are unsigned or zigzag varints, floats 8-byte
// little-endian IEEE-754 bits, strings a uvarint byte length followed by
// the bytes. A frame sequence is any number of frames (uvarint payload
// length > 0, then the payload), a uvarint 0 sentinel, and a uvarint
// trailer holding the frame count, so truncation anywhere is detectable.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// MaxString caps an encoded string, so a corrupt length prefix is
// rejected before it is trusted.
const MaxString = 1 << 20

// growChunk is the most a stream read reserves ahead of the bytes it
// has received (see Reader.Bytes).
const growChunk = 1 << 20

// NoEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a
// header, frame or field, running out of bytes is truncation, not a
// clean end, and must never be mistaken for an iterator's end signal.
func NoEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Enc appends encoded fields to Buf.
type Enc struct{ Buf []byte }

// Reset empties Buf, keeping its capacity.
func (e *Enc) Reset() { e.Buf = e.Buf[:0] }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }

// Varint appends a zigzag varint.
func (e *Enc) Varint(v int64) { e.Buf = binary.AppendVarint(e.Buf, v) }

// F64 appends the float's 8 IEEE-754 bytes, little-endian.
func (e *Enc) F64(v float64) {
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, math.Float64bits(v))
}

// Byte appends one byte.
func (e *Enc) Byte(b byte) { e.Buf = append(e.Buf, b) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Dec decodes fields from an in-memory payload. The first failure
// sticks: later reads return zero values and Err reports it, so a
// decoder reads linearly and checks once. Dec is a value type meant to
// live on the caller's stack.
type Dec struct {
	data   []byte
	pos    int
	err    error
	prefix string
}

// NewDec returns a decoder over data whose errors start with prefix.
func NewDec(data []byte, prefix string) Dec { return Dec{data: data, prefix: prefix} }

// Err returns the first failure, or nil.
func (d *Dec) Err() error { return d.err }

// Left returns the number of undecoded bytes.
func (d *Dec) Left() int { return len(d.data) - d.pos }

// Fail records a failure (unless one is already recorded), prefixed
// like the decoder's own errors.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(d.prefix+": "+format, args...)
	}
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.Fail("bad uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// Varint reads a zigzag varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.Fail("bad varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// F64 reads a little-endian IEEE-754 float64.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.data) {
		d.Fail("truncated float at offset %d", d.pos)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.Fail("truncated byte at offset %d", d.pos)
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// StrBytes reads a length-prefixed string and returns its bytes, which
// alias the payload. It lets a caller resolve the bytes through an
// intern table (a map lookup keyed by string(b) does not allocate)
// before paying for a copy.
func (d *Dec) StrBytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > MaxString {
		d.Fail("string length %d exceeds limit", n)
		return nil
	}
	if uint64(d.Left()) < n {
		d.Fail("truncated string at offset %d", d.pos)
		return nil
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.StrBytes()) }

// Reader reads fields from a buffered stream with Dec's sticky-error
// contract; a stream that ends inside a field fails with
// io.ErrUnexpectedEOF.
type Reader struct {
	br  *bufio.Reader
	buf []byte // scratch for Str
	err error
}

// NewReader reads from r, buffering it unless it is a *bufio.Reader.
func NewReader(r io.Reader) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	return &Reader{br: br}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = NoEOF(err)
	}
}

// Header reads and checks a 4-byte magic and a uvarint version; what
// names the format, article included, for the wrong-magic error
// ("not <what>").
func (r *Reader) Header(magic [4]byte, version uint64, what string) {
	var got [4]byte
	if _, err := io.ReadFull(r.br, got[:]); err != nil {
		r.fail(err)
		return
	}
	if got != magic {
		r.fail(fmt.Errorf("not %s (magic %q)", what, got[:]))
		return
	}
	if v := r.Uvarint(); r.err == nil && v != version {
		r.fail(fmt.Errorf("unsupported %s version %d (have %d)", magic[:], v, version))
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		r.fail(err)
	}
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.br)
	if err != nil {
		r.fail(err)
	}
	return v
}

// F64 reads a little-endian IEEE-754 float64.
func (r *Reader) F64() float64 {
	var b [8]byte
	if r.err != nil {
		return 0
	}
	if _, err := io.ReadFull(r.br, b[:]); err != nil {
		r.fail(err)
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// Str reads a length-prefixed string of at most MaxString bytes.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > MaxString {
		r.fail(fmt.Errorf("string length %d exceeds limit", n))
		return ""
	}
	if r.buf = r.Bytes(r.buf, n); r.err != nil {
		return ""
	}
	return string(r.buf)
}

// Bytes reads exactly n bytes into buf's backing array and returns
// buf[:n]. A buffer with room for n is filled in place; otherwise it
// grows only as bytes arrive — at most growChunk (or its own length)
// ahead of them — so an untrusted length prefix cannot reserve more
// memory than the stream delivers. The caller bounds n.
func (r *Reader) Bytes(buf []byte, n uint64) []byte {
	buf = buf[:0]
	if r.err != nil {
		return buf
	}
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(n-uint64(len(buf)), uint64(max(len(buf), growChunk)))))
		}
		m, err := io.ReadFull(r.br, buf[len(buf):int(min(uint64(cap(buf)), n))])
		buf = buf[:len(buf)+m]
		if err != nil {
			r.fail(err)
			return buf
		}
	}
	return buf
}

// Frames reads a frame sequence (see the package comment) from a
// stream or from memory.
type Frames struct {
	r     *Reader // stream mode
	mm    []byte  // in-memory mode: frames are subslices of mm
	pos   int
	limit uint64
	count uint64
	done  bool
}

// NewFrames reads frames of at most limit bytes from r.
func NewFrames(r *Reader, limit uint64) *Frames { return &Frames{r: r, limit: limit} }

// NewFramesBytes reads frames of at most limit bytes from data, which
// must stay unmodified while the frames are in use.
func NewFramesBytes(data []byte, limit uint64) *Frames {
	return &Frames{mm: data, limit: limit}
}

// InMemory reports whether frames are subslices of an in-memory
// sequence (buf arguments to Next go unused).
func (f *Frames) InMemory() bool { return f.r == nil }

// Count returns the number of frames read so far.
func (f *Frames) Count() uint64 { return f.count }

// Next returns the next frame's payload, or io.EOF once the sentinel
// and a trailer equal to Count have been read. From a stream, the
// payload is read into buf's backing array (see Reader.Bytes); from
// memory it is a subslice of the data.
func (f *Frames) Next(buf []byte) ([]byte, error) {
	if f.done {
		return nil, io.EOF
	}
	n, err := f.uvarint()
	if err != nil {
		return nil, fmt.Errorf("read frame: %w", err)
	}
	if n == 0 {
		trailer, err := f.uvarint()
		if err != nil {
			return nil, fmt.Errorf("read trailer: %w", err)
		}
		if trailer != f.count {
			return nil, fmt.Errorf("trailer counts %d frames, read %d", trailer, f.count)
		}
		f.done = true
		return nil, io.EOF
	}
	if n > f.limit {
		return nil, fmt.Errorf("frame length %d exceeds limit", n)
	}
	if f.r != nil {
		if buf = f.r.Bytes(buf, n); f.r.Err() != nil {
			return buf, fmt.Errorf("read frame: %w", f.r.Err())
		}
	} else {
		if uint64(len(f.mm)-f.pos) < n {
			return nil, fmt.Errorf("read frame: %w", io.ErrUnexpectedEOF)
		}
		buf = f.mm[f.pos : f.pos+int(n)]
		f.pos += int(n)
	}
	f.count++
	return buf, nil
}

// uvarint reads one uvarint in either mode.
func (f *Frames) uvarint() (uint64, error) {
	if f.r != nil {
		v := f.r.Uvarint()
		return v, f.r.Err()
	}
	v, n := binary.Uvarint(f.mm[f.pos:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	f.pos += n
	return v, nil
}

// Writer writes fields and frames to a buffered stream. The first
// write error sticks and is returned by Flush.
type Writer struct {
	w      *bufio.Writer
	enc    Enc // varint scratch
	n      int64
	frames uint64
	err    error
}

// NewWriter writes to w, buffering it unless it is a *bufio.Writer.
func NewWriter(w io.Writer) *Writer {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriterSize(w, 1<<16)
	}
	return &Writer{w: bw}
}

// Raw writes p as is.
func (w *Writer) Raw(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.n += int64(n)
	w.err = err
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.enc.Reset()
	w.enc.Uvarint(v)
	w.Raw(w.enc.Buf)
}

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.enc.Reset()
	w.enc.Str(s)
	w.Raw(w.enc.Buf)
}

// Frame writes one frame of a frame sequence. Payloads must not be
// empty: a zero length is the sentinel.
func (w *Writer) Frame(p []byte) {
	if len(p) == 0 && w.err == nil {
		w.err = fmt.Errorf("wire: empty frame")
	}
	w.Uvarint(uint64(len(p)))
	w.Raw(p)
	if w.err == nil {
		w.frames++
	}
}

// End writes the sentinel and the trailer that close a frame sequence.
func (w *Writer) End() {
	w.Uvarint(0)
	w.Uvarint(w.frames)
}

// Frames returns the number of frames written so far.
func (w *Writer) Frames() uint64 { return w.frames }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int64 { return w.n }

// Err returns the first write error, or nil.
func (w *Writer) Err() error { return w.err }

// Flush flushes the buffer and returns the first write error.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}
