package trace

// GSF1 fragment container: the generic on-disk envelope for per-shard
// result fragments (checkpoints today; the multi-node result exchange
// tomorrow). A fragment is a small keyed document — a sorted key/value
// header identifying what the fragment belongs to — followed by named
// sections, each a stream of length-prefixed chunks, closed by a
// truncation-proof trailer carrying the total chunk count. The payload
// semantics (what the chunks mean) belong to the layer above
// (internal/checkpoint); this file owns only the byte-level envelope,
// documented in docs/FORMAT.md.
//
// Layout:
//
//	magic "GSF1"
//	uvarint version (currently 1)
//	uvarint nkeys, then nkeys × (string key, string value), keys sorted
//	sections, repeated:
//	    string name (non-empty)
//	    chunks, repeated: uvarint len(chunk)+1, chunk bytes
//	    uvarint 0  (end of section)
//	string "" (empty name: end of sections)
//	uvarint total chunk count across all sections
//
// Strings are uvarint-length-prefixed UTF-8. Chunk lengths are stored
// off by one so the zero value stays free as the section terminator
// (empty chunks are legal). Because keys are written sorted and the
// writer adds nothing nondeterministic, two fragments built from the
// same keys, sections and chunks are byte-identical — which is what
// lets fragments be content-addressed.

import (
	"fmt"
	"io"
	"sort"

	"geosocial/internal/wire"
)

// fragmentMagic identifies the fragment container format.
var fragmentMagic = [4]byte{'G', 'S', 'F', '1'}

// fragmentVersion is the current container version.
const fragmentVersion = 1

const (
	// maxFragmentChunk caps one chunk.
	maxFragmentChunk = 1 << 28
	// maxFragmentKeys bounds the header key count.
	maxFragmentKeys = 1 << 10
)

// FragmentWriter emits a GSF1 fragment to an io.Writer. Sections are
// opened with Section and filled with Chunk; Finish writes the
// terminator and trailer. The writer performs no buffering or file
// management of its own — callers own the destination (and its
// atomic-publish discipline).
type FragmentWriter struct {
	w      *wire.Writer
	chunks uint64
	inSect bool
	done   bool
}

// NewFragmentWriter writes the fragment magic, version and sorted key
// header and returns a writer positioned before the first section.
func NewFragmentWriter(w io.Writer, keys map[string]string) (*FragmentWriter, error) {
	fw := &FragmentWriter{w: wire.NewWriter(w)}
	fw.w.Raw(fragmentMagic[:])
	fw.w.Uvarint(fragmentVersion)
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	fw.w.Uvarint(uint64(len(names)))
	for _, k := range names {
		fw.w.Str(k)
		fw.w.Str(keys[k])
	}
	if err := fw.err(); err != nil {
		return nil, err
	}
	return fw, nil
}

// err returns the writer's first write error, wrapped.
func (fw *FragmentWriter) err() error {
	if err := fw.w.Err(); err != nil {
		return fmt.Errorf("trace: write fragment: %w", err)
	}
	return nil
}

// Section closes any open section and starts a new one. The name must
// be non-empty (the empty name terminates the section list).
func (fw *FragmentWriter) Section(name string) error {
	if fw.done {
		return fmt.Errorf("trace: fragment writer finished")
	}
	if name == "" {
		return fmt.Errorf("trace: empty fragment section name")
	}
	if fw.inSect {
		fw.w.Uvarint(0) // end the previous section
	}
	fw.w.Str(name)
	fw.inSect = true
	return fw.err()
}

// Chunk appends one chunk to the open section.
func (fw *FragmentWriter) Chunk(b []byte) error {
	if fw.done {
		return fmt.Errorf("trace: fragment writer finished")
	}
	if !fw.inSect {
		return fmt.Errorf("trace: fragment chunk outside a section")
	}
	if len(b) > maxFragmentChunk {
		return fmt.Errorf("trace: fragment chunk of %d bytes exceeds limit", len(b))
	}
	fw.w.Uvarint(uint64(len(b)) + 1)
	fw.w.Raw(b)
	if err := fw.err(); err != nil {
		return err
	}
	fw.chunks++
	return nil
}

// Finish terminates the section list, writes the chunk-count trailer
// and flushes. The fragment is complete and verifiable only after
// Finish returns nil.
func (fw *FragmentWriter) Finish() error {
	if !fw.done {
		fw.done = true
		if fw.inSect {
			fw.w.Uvarint(0)
			fw.inSect = false
		}
		fw.w.Str("") // end of sections
		fw.w.Uvarint(fw.chunks)
		fw.w.Flush()
	}
	return fw.err()
}

// FragmentReader decodes a GSF1 fragment sequentially: header keys at
// open, then NextSection / NextChunk in document order. The trailer is
// verified when NextSection reports io.EOF, so a truncated fragment is
// always a decode error, never a silently short read.
type FragmentReader struct {
	r      *wire.Reader
	keys   map[string]string
	chunks uint64
	buf    []byte
	inSect bool
	done   bool
}

// NewFragmentReader parses the fragment magic, version and key header.
func NewFragmentReader(r io.Reader) (*FragmentReader, error) {
	wr := wire.NewReader(r)
	wr.Header(fragmentMagic, fragmentVersion, "a fragment")
	nkeys := wr.Uvarint()
	if wr.Err() == nil && nkeys > maxFragmentKeys {
		return nil, fmt.Errorf("trace: fragment key count %d exceeds limit", nkeys)
	}
	fr := &FragmentReader{r: wr, keys: make(map[string]string, min(nkeys, maxFragmentKeys))}
	for i := uint64(0); i < nkeys && wr.Err() == nil; i++ {
		k := wr.Str()
		fr.keys[k] = wr.Str()
	}
	if err := wr.Err(); err != nil {
		return nil, fmt.Errorf("trace: read fragment header: %w", err)
	}
	return fr, nil
}

// Keys returns the fragment's identifying key/value header.
func (fr *FragmentReader) Keys() map[string]string { return fr.keys }

// NextSection advances to the next section and returns its name, or
// io.EOF after the final section once the trailer has been verified.
// Any chunks left unread in the current section are skipped.
func (fr *FragmentReader) NextSection() (string, error) {
	if fr.done {
		return "", io.EOF
	}
	if fr.inSect {
		// Drain the remainder of the open section.
		for {
			if _, err := fr.NextChunk(); err == io.EOF {
				break
			} else if err != nil {
				return "", err
			}
		}
	}
	name := fr.r.Str()
	if err := fr.r.Err(); err != nil {
		return "", fmt.Errorf("trace: read fragment section: %w", err)
	}
	if name == "" {
		count := fr.r.Uvarint()
		if err := fr.r.Err(); err != nil {
			return "", fmt.Errorf("trace: read fragment trailer: %w", err)
		}
		if count != fr.chunks {
			return "", fmt.Errorf("trace: fragment trailer says %d chunks, read %d", count, fr.chunks)
		}
		fr.done = true
		return "", io.EOF
	}
	fr.inSect = true
	return name, nil
}

// NextChunk returns the next chunk of the current section, or io.EOF at
// the section's end. The returned slice is reused by the next call;
// callers that retain it must copy.
func (fr *FragmentReader) NextChunk() ([]byte, error) {
	if !fr.inSect {
		return nil, fmt.Errorf("trace: fragment chunk read outside a section")
	}
	n := fr.r.Uvarint()
	if err := fr.r.Err(); err != nil {
		return nil, fmt.Errorf("trace: read fragment chunk: %w", err)
	}
	if n == 0 {
		fr.inSect = false
		return nil, io.EOF
	}
	if size := n - 1; size > maxFragmentChunk {
		return nil, fmt.Errorf("trace: fragment chunk of %d bytes exceeds limit", size)
	}
	if fr.buf = fr.r.Bytes(fr.buf, n-1); fr.r.Err() != nil {
		return nil, fmt.Errorf("trace: read fragment chunk: %w", fr.r.Err())
	}
	fr.chunks++
	return fr.buf, nil
}
