package trace

// Binary dataset codec ("GSB1"): a compact streaming on-disk format for
// trace datasets. Unlike the JSON codec, which materializes the whole
// dataset before the first user can be validated, the binary format is a
// sequence of independently decodable per-user frames behind a small
// header, so readers and writers hold O(1 user) in memory regardless of
// dataset size.
//
// Layout (all integers are varints unless noted):
//
//	magic      4 bytes "GSB1"
//	version    uvarint (currently 1)
//	name       string (uvarint length + UTF-8 bytes)
//	poi count  uvarint
//	POI table  per POI: name, category (zigzag), lat/lon (zigzag E7),
//	           popularity (8-byte LE float64)
//	frames     per user: uvarint payload length (> 0), then the payload
//	sentinel   uvarint 0
//	trailer    uvarint user count (cross-checked by the reader)
//
// User frame payload:
//
//	id         zigzag varint
//	days       8-byte LE float64
//	profile    friends/badges/mayors (zigzag), checkins-per-day (float64)
//	gps        uvarint count; first fix time as zigzag varint, then
//	           uvarint deltas (fixes are time-ordered); lat/lon as zigzag
//	           E7 deltas from the previous fix (spatial coherence keeps
//	           them small); indoor flag byte
//	checkins   uvarint count; times delta-encoded like GPS; POI ID
//	           (uvarint), claimed name, category (zigzag), lat/lon
//	           (zigzag E7, absolute), truth label (enum, or enum escape +
//	           string for unknown labels)
//
// Coordinates are stored as fixed-point E7 integers (1e-7 degrees,
// ~1.1 cm of latitude) — far below GPS noise and the paper's 500 m
// matching threshold. Encoding therefore quantizes: a dataset round-
// tripped through the binary codec once is on the E7 grid and from then
// on round-trips exactly (through both the binary and JSON codecs).
// Timestamps, counts and float64 statistics are preserved exactly.
//
// Writers validate as they encode and readers validate as they decode
// (trace invariants, duplicate user IDs, checkin POI references), so a
// successfully decoded stream satisfies the same invariants Dataset.
// Validate enforces on the JSON path.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"geosocial/internal/geo"
	"geosocial/internal/poi"
	"geosocial/internal/wire"
)

// binaryMagic identifies the binary dataset format ("GeoSocial Binary").
var binaryMagic = [4]byte{'G', 'S', 'B', '1'}

// binaryVersion is the current header version.
const binaryVersion = 1

const (
	// coordScale converts degrees to fixed-point E7 ticks.
	coordScale = 1e7
	// maxFrameBytes caps a single user frame.
	maxFrameBytes = 1 << 30
	// allocHint caps speculative slice preallocation from untrusted
	// counts; slices grow past it by appending.
	allocHint = 1 << 16
)

// labelTable enumerates the known ground-truth labels; the index is the
// wire encoding. Unknown labels are written as len(labelTable) + string.
var labelTable = [...]Label{
	LabelNone, LabelHonest, LabelSuperfluous, LabelRemote, LabelDriveby, LabelOther,
}

// EncodeLabel appends l's wire code: its labelTable index, or the
// escape len(labelTable) followed by the label as a string. GSB1 frames
// and GSO1 records share it.
func EncodeLabel(e *wire.Enc, l Label) {
	for i, known := range labelTable {
		if l == known {
			e.Uvarint(uint64(i))
			return
		}
	}
	e.Uvarint(uint64(len(labelTable)))
	e.Str(string(l))
}

// DecodeLabel reads a label written by EncodeLabel.
func DecodeLabel(d *wire.Dec) Label {
	idx := d.Uvarint()
	if idx < uint64(len(labelTable)) {
		return labelTable[idx]
	}
	if idx == uint64(len(labelTable)) {
		return Label(d.Str())
	}
	d.Fail("bad label code %d", idx)
	return LabelNone
}

func toE7(deg float64) int64 { return int64(math.Round(deg * coordScale)) }
func fromE7(v int64) float64 { return float64(v) / coordScale }

func encodeLatLon(e *wire.Enc, p geo.LatLon) {
	e.Varint(toE7(p.Lat))
	e.Varint(toE7(p.Lon))
}

// encodePOITable encodes a POI table as the header carries it: the
// count, then each venue's name, category, E7 location and popularity.
// The writer, POIChecksum and a shard set's table check use it, so the
// checksum is the hash of the bytes a header holds.
func encodePOITable(e *wire.Enc, pois []poi.POI) {
	e.Uvarint(uint64(len(pois)))
	for _, p := range pois {
		e.Str(p.Name)
		e.Varint(int64(p.Category))
		encodeLatLon(e, p.Loc)
		e.F64(p.Popularity)
	}
}

// checksumOf is the "sha256:<hex>" form manifests record.
func checksumOf(b []byte) string { return fmt.Sprintf("sha256:%x", sha256.Sum256(b)) }

// poiTable is a decoded, checked venue table. A shard set shares one
// among all the readers it opens, with canon, the table's canonical
// header encoding, set: every later shard header must repeat it.
type poiTable struct {
	pois  []poi.POI
	names map[string]string // POI-name intern table, read-only
	canon []byte            // encodePOITable(pois), set by the owning shard set
}

// newPOITable checks pois and builds its intern table for checkin
// names: claimed names overwhelmingly repeat venue-table names, and a
// map[string]string lookup keyed by string(bytes) does not allocate on
// a hit, so steady-state decode reuses one canonical string per venue.
// The table is read-only afterwards, hence safe under concurrent
// DecodeFrame calls.
func newPOITable(pois []poi.POI) (*poiTable, error) {
	if err := poi.CheckTable(pois); err != nil {
		return nil, err
	}
	names := make(map[string]string, len(pois))
	for _, p := range pois {
		names[p.Name] = p.Name
	}
	return &poiTable{pois: pois, names: names}, nil
}

// --- stream writer ---

// StreamWriter writes a binary dataset one user at a time, holding only
// the current user in memory. The header (name + POI table) is written
// up front; Close writes the end-of-stream sentinel and trailer. The
// writer validates each user (trace invariants, unique IDs, known
// checkin POIs) before encoding it, so a completed stream always decodes
// cleanly.
//
// The writer does not close or flush the underlying io.Writer beyond its
// own buffering; callers own gzip wrapping and file lifecycle.
type StreamWriter struct {
	w       *wire.Writer
	scratch wire.Enc
	seen    map[int]struct{}
	numPOIs int
	closed  bool
}

// NewStreamWriter validates the POI table and writes the stream header.
func NewStreamWriter(w io.Writer, name string, pois []poi.POI) (*StreamWriter, error) {
	if err := poi.CheckTable(pois); err != nil {
		return nil, fmt.Errorf("trace: write binary: %w", err)
	}
	sw := &StreamWriter{
		w:       wire.NewWriter(w),
		seen:    make(map[int]struct{}),
		numPOIs: len(pois),
	}
	hdr := &sw.scratch
	hdr.Buf = append(hdr.Buf, binaryMagic[:]...)
	hdr.Uvarint(binaryVersion)
	hdr.Str(name)
	encodePOITable(hdr, pois)
	if sw.w.Raw(hdr.Buf); sw.w.Err() != nil {
		return nil, fmt.Errorf("trace: write binary header: %w", sw.w.Err())
	}
	return sw, nil
}

// Users returns the number of user frames written so far.
func (sw *StreamWriter) Users() int { return int(sw.w.Frames()) }

// Bytes returns the number of uncompressed stream bytes produced so far
// (header plus frames; the trailer is not yet counted before Close).
// ShardWriter uses it to keep shards size-balanced.
func (sw *StreamWriter) Bytes() int64 { return sw.w.Len() }

// WriteUser validates and appends one user frame.
func (sw *StreamWriter) WriteUser(u *User) error {
	if sw.closed {
		return fmt.Errorf("trace: write binary: writer closed")
	}
	if err := u.Validate(); err != nil {
		return fmt.Errorf("trace: write binary: %w", err)
	}
	if _, dup := sw.seen[u.ID]; dup {
		return fmt.Errorf("trace: write binary: duplicate user ID %d", u.ID)
	}
	if err := u.validateRefs(sw.numPOIs); err != nil {
		return fmt.Errorf("trace: write binary: %w", err)
	}

	e := &sw.scratch
	e.Reset()
	e.Varint(int64(u.ID))
	e.F64(u.Days)
	e.Varint(int64(u.Profile.Friends))
	e.Varint(int64(u.Profile.Badges))
	e.Varint(int64(u.Profile.Mayors))
	e.F64(u.Profile.CheckinsPerDay)

	e.Uvarint(uint64(len(u.GPS)))
	var prevT int64
	var prevLat, prevLon int64
	for i, p := range u.GPS {
		if i == 0 {
			e.Varint(p.T)
		} else {
			e.Uvarint(uint64(p.T - prevT)) // Validate guarantees non-decreasing
		}
		prevT = p.T
		lat, lon := toE7(p.Loc.Lat), toE7(p.Loc.Lon)
		e.Varint(lat - prevLat)
		e.Varint(lon - prevLon)
		prevLat, prevLon = lat, lon
		if p.Indoor {
			e.Byte(1)
		} else {
			e.Byte(0)
		}
	}

	e.Uvarint(uint64(len(u.Checkins)))
	prevT = 0
	for i, c := range u.Checkins {
		if i == 0 {
			e.Varint(c.T)
		} else {
			e.Uvarint(uint64(c.T - prevT))
		}
		prevT = c.T
		e.Uvarint(uint64(c.POIID))
		e.Str(c.POIName)
		e.Varint(int64(c.Category))
		encodeLatLon(e, c.Loc)
		EncodeLabel(e, c.Truth)
	}

	if sw.w.Frame(e.Buf); sw.w.Err() != nil {
		return fmt.Errorf("trace: write binary frame: %w", sw.w.Err())
	}
	sw.seen[u.ID] = struct{}{}
	return nil
}

// Close writes the end-of-stream sentinel and user-count trailer and
// flushes the writer's buffer. It does not close the underlying writer.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	sw.w.End()
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("trace: write binary trailer: %w", err)
	}
	return nil
}

// --- stream reader ---

// StreamReader reads a binary dataset one user at a time, holding only
// the current frame in memory. The header (name + POI table) is decoded
// and validated by NewStreamReader; Next yields validated users and
// io.EOF after the trailer has been verified.
//
// Ingest is split into two stages so decode can run off the reading
// goroutine: NextFrame fetches the next raw frame (cheap, sequential
// I/O) and DecodeFrame decodes and validates it (CPU-bound, safe for
// concurrent calls on distinct frames). Next composes the two for the
// serial path. Frame buffers are recycled through an internal pool —
// DecodeFrame returns its frame's buffer when done — so steady-state
// reading allocates no per-user scratch.
//
// The reader tracks seen user IDs to reject duplicates — an O(users)
// integer set, the only per-user state it keeps. The check lives in
// Next, not DecodeFrame: callers of the two-stage API that interleave
// frames from several readers own the (inherently serial) duplicate
// check across their merged stream.
//
// A reader from OpenStream or ShardSet.OpenShard owns its file; Close
// releases it. A shard's reader also checks its frame count against
// the manifest at the end of the stream.
type StreamReader struct {
	frames  *wire.Frames // in memory (newStreamReaderBytes): no copy, no buffer pool
	name    string
	tab     *poiTable // shared by every reader of a shard set
	seen    map[int]struct{}
	bufs    sync.Pool   // *[]byte, recycled by DecodeFrame
	upool   sync.Pool   // *User, recycled by RecycleUser
	closers []io.Closer // file handles, released by Close
	shard   *ShardInfo  // manifest entry of a shard's reader, else nil
}

// UserRecycler is implemented by frame sources whose DecodeFrame can
// reuse consumed user records. A consumer that is provably done with a
// decoded user — nothing retains the User or its GPS/checkin slices —
// hands it back so the next decode fills it in place instead of
// allocating. Recycling is strictly opt-in: sources whose consumers
// retain users simply never call it and decode behaves as before.
type UserRecycler interface {
	RecycleUser(*User)
}

// Frame is one undecoded unit of a user stream: a raw binary frame
// fetched by StreamReader.NextFrame, or an already-decoded user wrapped
// by SourceFrames. Frames are consumed by DecodeFrame and must not be
// reused afterwards (the backing buffer returns to the reader's pool).
type Frame struct {
	data []byte
	buf  *[]byte // pool box for data, nil when not pooled
	user *User   // pre-decoded user for SourceFrames adapters
}

// UserID peeks the frame's user ID without decoding the frame: the ID
// is the payload's leading zigzag varint. For a pre-decoded frame it
// returns the wrapped user's ID. Peeking does not consume the frame —
// it must still be decoded or recycled.
func (f Frame) UserID() (int, error) {
	if f.user != nil {
		return f.user.ID, nil
	}
	d := wire.NewDec(f.data, "trace: binary frame")
	id := d.Varint()
	return int(id), d.Err()
}

// recycle returns an undecoded frame's buffer to the reader's pool
// without decoding it — the counterpart of DecodeFrame for callers that
// peek (Frame.UserID) and skip frames. The frame must not be used
// afterwards.
func (sr *StreamReader) recycle(f Frame) {
	if f.buf != nil {
		sr.bufs.Put(f.buf)
	}
}

// FrameSource is the two-stage ingest interface behind parallel decode.
// NextFrame returns the next undecoded frame, or io.EOF at a verified
// end of stream; it must be called from one goroutine at a time.
// DecodeFrame decodes and validates a frame from this source; it is
// safe for concurrent calls on distinct frames, which is what lets
// decode run as the first stage of a worker pool. Implementations do
// not check for duplicate user IDs across frames — that check is
// serial by nature and belongs to whoever consumes the decoded stream.
type FrameSource interface {
	NextFrame() (Frame, error)
	DecodeFrame(Frame) (*User, error)
}

// NewStreamReader decodes and validates the stream header. The reader
// expects uncompressed bytes; callers own gzip unwrapping (OpenStream
// does both).
func NewStreamReader(r io.Reader) (*StreamReader, error) { return newStreamReader(r, nil) }

// newStreamReader reads the stream header. With tab nil it decodes and
// checks the header's POI table. Otherwise the header must carry tab's
// canonical bytes exactly, and the reader shares tab: the encoding is
// self-delimiting, so equal bytes are an equal table.
func newStreamReader(r io.Reader, tab *poiTable) (*StreamReader, error) {
	wr := wire.NewReader(r)
	wr.Header(binaryMagic, binaryVersion, "a binary dataset")
	sr := &StreamReader{frames: wire.NewFrames(wr, maxFrameBytes), tab: tab, seen: make(map[int]struct{})}
	sr.name = wr.Str()
	if tab != nil {
		same := bytes.Equal(wr.Bytes(nil, uint64(len(tab.canon))), tab.canon)
		if err := wr.Err(); err != nil {
			return nil, fmt.Errorf("trace: read binary header: %w", err)
		}
		if !same {
			return nil, errors.New("POI table differs from the shard set's")
		}
		return sr, nil
	}
	nPOIs := wr.Uvarint()
	pois := make([]poi.POI, 0, min(nPOIs, allocHint))
	for i := uint64(0); i < nPOIs && wr.Err() == nil; i++ {
		p := poi.POI{ID: int(i), Name: wr.Str()}
		p.Category = poi.Category(wr.Varint())
		lat := wr.Varint()
		p.Loc = geo.LatLon{Lat: fromE7(lat), Lon: fromE7(wr.Varint())}
		p.Popularity = wr.F64()
		pois = append(pois, p)
	}
	if err := wr.Err(); err != nil {
		return nil, fmt.Errorf("trace: read binary header: %w", err)
	}
	var err error
	if sr.tab, err = newPOITable(pois); err != nil {
		return nil, fmt.Errorf("trace: invalid POI table: %w", err)
	}
	return sr, nil
}

// newStreamReaderBytes opens a binary dataset held entirely in memory —
// typically an mmap'ed uncompressed shard; tab is as for
// newStreamReader. Frames are sliced directly from data with no
// copying and no buffer pool; data must remain valid and unmodified for
// the lifetime of the reader and of every frame it yields. Decoded
// users never alias data (strings are interned or copied), so they
// outlive an unmap.
func newStreamReaderBytes(data []byte, tab *poiTable) (*StreamReader, error) {
	r := bytes.NewReader(data)
	br := bufio.NewReaderSize(r, 1<<16)
	sr, err := newStreamReader(br, tab)
	if err != nil {
		return nil, err
	}
	sr.frames = wire.NewFramesBytes(data[len(data)-r.Len()-br.Buffered():], maxFrameBytes)
	return sr, nil
}

// Name returns the dataset name from the header.
func (sr *StreamReader) Name() string { return sr.name }

// POIs returns the decoded POI table. The slice is owned by the reader
// (and shared with the other readers of a shard set); callers must not
// mutate it.
func (sr *StreamReader) POIs() []poi.POI { return sr.tab.pois }

// Close releases the file handles of a reader from OpenStream or
// OpenShard; a reader over a caller's io.Reader holds none. Safe to
// call more than once.
func (sr *StreamReader) Close() error {
	err := closeAll(sr.closers)
	sr.closers = nil
	return err
}

// closeAll closes every closer in order and returns the first error.
func closeAll(closers []io.Closer) error {
	var first error
	for _, c := range closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Next decodes, validates and returns the next user, or io.EOF once the
// end-of-stream trailer has been read and verified. A truncated or
// corrupt stream yields a non-EOF error, never a silently short dataset.
func (sr *StreamReader) Next() (*User, error) {
	f, err := sr.NextFrame()
	if err != nil {
		return nil, err // io.EOF passes through untouched
	}
	return sr.decodeUnique(f)
}

// decodeUnique is DecodeFrame plus the reader's duplicate-ID check.
func (sr *StreamReader) decodeUnique(f Frame) (*User, error) {
	u, err := sr.DecodeFrame(f)
	if err != nil {
		return nil, err
	}
	if _, dup := sr.seen[u.ID]; dup {
		return nil, fmt.Errorf("trace: invalid dataset: duplicate user ID %d", u.ID)
	}
	sr.seen[u.ID] = struct{}{}
	return u, nil
}

// NextFrame fetches the next raw user frame without decoding it, or
// io.EOF once the end-of-stream trailer (and, for a shard, the
// manifest's user count) has been read and verified. The frame's
// buffer comes from the reader's pool and is reclaimed by DecodeFrame,
// so each frame must be decoded exactly once.
func (sr *StreamReader) NextFrame() (Frame, error) {
	var bp *[]byte // nil in memory: frames are subslices, nothing to pool
	var buf []byte
	if !sr.frames.InMemory() {
		if bp, _ = sr.bufs.Get().(*[]byte); bp == nil {
			bp = new([]byte)
		}
		buf = *bp
	}
	data, err := sr.frames.Next(buf)
	if err != nil {
		if bp != nil {
			sr.bufs.Put(bp)
		}
		if err != io.EOF {
			err = fmt.Errorf("trace: binary stream: %w", err)
		} else if sr.shard != nil && sr.Users() != sr.shard.Users {
			err = fmt.Errorf("trace: shard %s has %d users, manifest says %d", sr.shard.File, sr.Users(), sr.shard.Users)
		}
		return Frame{}, err
	}
	if bp != nil {
		*bp = data
	}
	return Frame{data: data, buf: bp}, nil
}

// RecycleUser returns a decoded user to the reader's record pool so a
// later DecodeFrame can fill it in place (see UserRecycler). The caller
// must be done with the user and every slice it owns.
func (sr *StreamReader) RecycleUser(u *User) {
	if u == nil {
		return
	}
	u.GPS = u.GPS[:0]
	u.Checkins = u.Checkins[:0]
	sr.upool.Put(u)
}

// Users returns the number of user frames fetched so far.
func (sr *StreamReader) Users() int { return int(sr.frames.Count()) }

// DecodeFrame decodes and validates one frame fetched from this reader
// (trace invariants and checkin POI references, but not cross-frame
// duplicate user IDs; see the type comment). It is safe for concurrent
// calls on distinct frames. The frame's buffer is returned to the
// reader's pool, so the frame must not be used again.
func (sr *StreamReader) DecodeFrame(f Frame) (*User, error) {
	if f.user != nil {
		return f.user, nil
	}
	u, err := sr.decodeFrame(f.data)
	if f.buf != nil {
		sr.bufs.Put(f.buf)
	}
	return u, err
}

// decodeFrame decodes one raw frame payload into a validated user. The
// record comes from the reader's pool when consumers recycle (every
// field is overwritten below, so a reused record carries nothing over);
// otherwise the pool misses and this allocates exactly as before.
func (sr *StreamReader) decodeFrame(data []byte) (u *User, err error) {
	d := wire.NewDec(data, "trace: binary frame")
	u, _ = sr.upool.Get().(*User)
	if u == nil {
		u = &User{}
	}
	defer func() {
		if err != nil {
			// The partially filled record is clean for reuse — every
			// decode starts by truncating the slices and overwriting
			// the scalars — so an error keeps it pooled, not leaked.
			sr.RecycleUser(u)
			u = nil
		}
	}()
	u.ID = int(d.Varint())
	u.Days = d.F64()
	u.Profile.Friends = int(d.Varint())
	u.Profile.Badges = int(d.Varint())
	u.Profile.Mayors = int(d.Varint())
	u.Profile.CheckinsPerDay = d.F64()

	nGPS := d.Uvarint()
	if d.Err() == nil {
		if hint := int(min(nGPS, allocHint)); cap(u.GPS) < hint {
			u.GPS = make(GPSTrace, 0, hint)
		} else {
			u.GPS = u.GPS[:0]
		}
	}
	var t int64
	var lat, lon int64
	for i := uint64(0); i < nGPS && d.Err() == nil; i++ {
		if i == 0 {
			t = d.Varint()
		} else {
			t += int64(d.Uvarint())
		}
		lat += d.Varint()
		lon += d.Varint()
		indoor := d.Byte()
		u.GPS = append(u.GPS, GPSPoint{
			T:      t,
			Loc:    geo.LatLon{Lat: fromE7(lat), Lon: fromE7(lon)},
			Indoor: indoor != 0,
		})
	}

	nCk := d.Uvarint()
	if d.Err() == nil {
		if hint := int(min(nCk, allocHint)); cap(u.Checkins) < hint {
			u.Checkins = make(CheckinTrace, 0, hint)
		} else {
			u.Checkins = u.Checkins[:0]
		}
	}
	t = 0
	for i := uint64(0); i < nCk && d.Err() == nil; i++ {
		if i == 0 {
			t = d.Varint()
		} else {
			t += int64(d.Uvarint())
		}
		c := Checkin{T: t}
		c.POIID = int(d.Uvarint())
		// Claimed names overwhelmingly repeat venue names: a hit in the
		// intern table reuses the canonical string without allocating.
		name := d.StrBytes()
		if c.POIName = sr.tab.names[string(name)]; c.POIName == "" {
			c.POIName = string(name)
		}
		c.Category = poi.Category(d.Varint())
		lat := d.Varint()
		c.Loc = geo.LatLon{Lat: fromE7(lat), Lon: fromE7(d.Varint())}
		c.Truth = DecodeLabel(&d)
		u.Checkins = append(u.Checkins, c)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Left() != 0 {
		return nil, fmt.Errorf("trace: binary frame for user %d has %d trailing bytes", u.ID, d.Left())
	}

	if err := u.Validate(); err != nil {
		return nil, fmt.Errorf("trace: invalid dataset: %w", err)
	}
	if err := u.validateRefs(len(sr.tab.pois)); err != nil {
		return nil, fmt.Errorf("trace: invalid dataset: %w", err)
	}
	return u, nil
}

// SourceFrames adapts an already-decoded user stream to FrameSource, so
// in-memory and JSON-backed datasets can join a merged multi-source
// validation alongside binary shards. NextFrame wraps each user in a
// frame; DecodeFrame unwraps it (there is nothing left to decode).
func SourceFrames(src UserSource) FrameSource { return userFrames{src} }

type userFrames struct{ src UserSource }

// NextFrame wraps the source's next user in a pre-decoded frame.
func (s userFrames) NextFrame() (Frame, error) {
	u, err := s.src.Next()
	if err != nil {
		return Frame{}, err
	}
	return Frame{user: u}, nil
}

// DecodeFrame unwraps a pre-decoded frame (there is nothing to decode).
func (s userFrames) DecodeFrame(f Frame) (*User, error) { return f.user, nil }

// --- whole-dataset convenience ---

// WriteBinary encodes the dataset in the binary format. The dataset is
// validated as a side effect (the writer checks every user); coordinates
// are quantized to the E7 grid (see the package comment above).
func (d *Dataset) WriteBinary(w io.Writer) error {
	sw, err := NewStreamWriter(w, d.Name, d.POIs)
	if err != nil {
		return err
	}
	for _, u := range d.Users {
		if err := sw.WriteUser(u); err != nil {
			return err
		}
	}
	return sw.Close()
}

// ReadBinary decodes a complete binary dataset into memory. Prefer
// NewStreamReader (or OpenStream) when per-user streaming suffices.
func ReadBinary(r io.Reader) (*Dataset, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	d := &Dataset{Name: sr.Name(), POIs: sr.POIs()}
	for {
		u, err := sr.Next()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return nil, err
		}
		d.Users = append(d.Users, u)
	}
}
