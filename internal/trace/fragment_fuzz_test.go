package trace_test

// Native fuzz target for the GSF1 fragment decoder: arbitrary bytes must
// either fail to decode with an error or yield keys, sections and
// chunks that re-encode through FragmentWriter to a fragment that
// decodes to the same content and re-encodes to the same bytes.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"geosocial/internal/checkpoint"
	"geosocial/internal/trace"
)

// fragSection is one decoded fragment section.
type fragSection struct {
	Name   string
	Chunks [][]byte
}

// decodeFragment reads a whole fragment into memory.
func decodeFragment(data []byte) (map[string]string, []fragSection, error) {
	fr, err := trace.NewFragmentReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	var secs []fragSection
	for {
		name, err := fr.NextSection()
		if err == io.EOF {
			return fr.Keys(), secs, nil
		}
		if err != nil {
			return nil, nil, err
		}
		sec := fragSection{Name: name}
		for {
			c, err := fr.NextChunk()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, nil, err
			}
			sec.Chunks = append(sec.Chunks, append([]byte{}, c...))
		}
		secs = append(secs, sec)
	}
}

// encodeFragment writes keys and sections through FragmentWriter.
func encodeFragment(t *testing.T, keys map[string]string, secs []fragSection) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := trace.NewFragmentWriter(&buf, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range secs {
		if err := fw.Section(sec.Name); err != nil {
			t.Fatalf("writer rejects a decoded section: %v", err)
		}
		for _, c := range sec.Chunks {
			if err := fw.Chunk(c); err != nil {
				t.Fatalf("writer rejects a decoded chunk: %v", err)
			}
		}
	}
	if err := fw.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkpointFragment commits a real checkpoint fragment and returns its
// bytes.
func checkpointFragment(f *testing.F) []byte {
	dir := f.TempDir()
	st, err := checkpoint.Open(dir, "sha256:manifest", "params")
	if err != nil {
		f.Fatal(err)
	}
	fr, err := st.Begin("sha256:shard")
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range [][]byte{[]byte("record-one"), {0x00, 0xff}} {
		if err := fr.AddRecord(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := fr.Commit(&checkpoint.Meta{Users: 3}, []int{9, -2, 4}); err != nil {
		f.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.gsf"))
	if err != nil || len(paths) != 1 {
		f.Fatalf("checkpoint fragments %v (err %v), want one", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		f.Fatal(err)
	}
	return data
}

func FuzzFragmentDecode(f *testing.F) {
	var empty bytes.Buffer
	fw, err := trace.NewFragmentWriter(&empty, nil)
	if err != nil {
		f.Fatal(err)
	}
	if err := fw.Section("empty"); err != nil {
		f.Fatal(err)
	}
	if err := fw.Finish(); err != nil {
		f.Fatal(err)
	}
	for _, raw := range [][]byte{checkpointFragment(f), empty.Bytes()} {
		f.Add(raw)
		for _, n := range []int{0, 4, len(raw) / 2, len(raw) - 1} {
			f.Add(raw[:n])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		keys, secs, err := decodeFragment(data)
		if err != nil {
			return
		}
		once := encodeFragment(t, keys, secs)
		keys2, secs2, err := decodeFragment(once)
		if err != nil {
			t.Fatalf("re-encoded fragment does not decode: %v", err)
		}
		if !reflect.DeepEqual(keys2, keys) || !reflect.DeepEqual(secs2, secs) {
			t.Fatalf("content changed across a round trip:\n%v %v\n%v %v", keys, secs, keys2, secs2)
		}
		if twice := encodeFragment(t, keys2, secs2); !bytes.Equal(twice, once) {
			t.Fatalf("second re-encoding differs (%d vs %d bytes)", len(twice), len(once))
		}
	})
}
