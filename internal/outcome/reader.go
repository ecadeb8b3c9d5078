package outcome

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"

	"geosocial/internal/detect"
	"geosocial/internal/wire"
)

// Reader decodes an outcome log one record at a time, holding only the
// current record in memory. The header is decoded and validated by
// NewReader; Next yields validated records in strictly increasing
// user-ID order (the canonical form every Writer produces — anything
// else is a corrupt or hand-mangled log) and io.EOF after the trailer
// has been verified. A truncated stream yields a non-EOF error, never a
// silently short analysis.
type Reader struct {
	frames    *wire.Frames
	name      string
	kindCount int
	buf       []byte
	prevID    int
}

// NewReader decodes and validates the log header. The reader expects
// uncompressed bytes; Open handles files and gzip.
func NewReader(r io.Reader) (*Reader, error) {
	wr := wire.NewReader(r)
	wr.Header(logMagic, logVersion, "an outcome log")
	name := wr.Str()
	dim := wr.Uvarint()
	kinds := wr.Uvarint()
	if err := wr.Err(); err != nil {
		return nil, fmt.Errorf("outcome: read header: %w", err)
	}
	if dim != detect.FeatureDim {
		return nil, fmt.Errorf("outcome: log carries %d-dimensional features (have %d)", dim, detect.FeatureDim)
	}
	if kinds == 0 || kinds > maxKindCount {
		return nil, fmt.Errorf("outcome: invalid kind count %d", kinds)
	}
	return &Reader{frames: wire.NewFrames(wr, maxRecordBytes), name: name, kindCount: int(kinds)}, nil
}

// Name returns the dataset name from the header.
func (rd *Reader) Name() string { return rd.name }

// Users returns the number of records decoded so far.
func (rd *Reader) Users() int { return int(rd.frames.Count()) }

// Next decodes, validates and returns the next record, or io.EOF once
// the trailer has been read and verified. The record is freshly
// allocated and owned by the caller.
func (rd *Reader) Next() (*Record, error) {
	data, err := rd.frames.Next(rd.buf)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("outcome: read log: %w", err)
	}
	rd.buf = data
	rec, err := decodeRecord(data, rd.kindCount)
	if err != nil {
		return nil, err
	}
	if rd.frames.Count() > 1 && rec.UserID <= rd.prevID {
		return nil, fmt.Errorf("outcome: user %d out of canonical order (after %d)", rec.UserID, rd.prevID)
	}
	rd.prevID = rec.UserID
	return rec, nil
}

// LogFile is a Reader bound to an opened log file.
type LogFile struct {
	*Reader
	f  *os.File
	gz *gzip.Reader
}

// Open opens an outcome log file, transparently unwrapping gzip
// (detected from magic bytes, never the file name).
func Open(path string) (*LogFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("outcome: open log: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	lf := &LogFile{f: f}
	src := io.Reader(br)
	if head, perr := br.Peek(2); perr == nil && head[0] == 0x1f && head[1] == 0x8b {
		if lf.gz, err = gzip.NewReader(br); err != nil {
			f.Close()
			return nil, fmt.Errorf("outcome: open log: %w", err)
		}
		src = lf.gz
	}
	if lf.Reader, err = NewReader(src); err != nil {
		f.Close()
		return nil, err
	}
	return lf, nil
}

// Close releases the underlying file.
func (lf *LogFile) Close() error {
	if lf.gz != nil {
		lf.gz.Close()
	}
	return lf.f.Close()
}

// Scan streams every record of a log file through fn, in canonical
// user-ID order, holding one record in memory at a time. fn errors
// abort the scan.
func Scan(path string, fn func(*Record) error) error {
	lf, err := Open(path)
	if err != nil {
		return err
	}
	defer lf.Close()
	return each(lf, fn)
}
