// The race detector's sync.Pool deliberately drops a fraction of Puts
// to shake out lifecycle bugs, so a zero-alloc pool assertion cannot
// hold under -race; the test runs in regular builds only.
//
//go:build !race

package trace

import (
	"bytes"
	"io"
	"runtime/debug"
	"testing"

	"geosocial/internal/poi"
	"geosocial/internal/rng"
)

// TestDecodeFrameSteadyStateAllocs pins the hot-path allocation budget:
// once a consumer recycles decoded users, DecodeFrame on an in-memory
// stream must not allocate at all — the pooled record is refilled in
// place, checkin POI names resolve through the intern table, and truth
// labels come from the label table.
func TestDecodeFrameSteadyStateAllocs(t *testing.T) {
	// sync.Pool contents may be dropped by a garbage collection between
	// runs; disable collection so the measurement sees the steady state
	// the pool is designed for.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var buf bytes.Buffer
	if err := testDataset().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	sr, err := newStreamReaderBytes(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// In-memory frames are subslices of the backing data, so they can be
	// fetched once and decoded repeatedly.
	var frames []Frame
	for {
		f, err := sr.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if len(frames) != len(testDataset().Users) {
		t.Fatalf("fetched %d frames, want %d", len(frames), len(testDataset().Users))
	}

	// Warm the record pool and slice capacities.
	for _, f := range frames {
		u, err := sr.DecodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		sr.RecycleUser(u)
	}

	allocs := testing.AllocsPerRun(200, func() {
		for _, f := range frames {
			u, err := sr.DecodeFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			sr.RecycleUser(u)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeFrame: %v allocs per run, want 0", allocs)
	}
}

// TestOpenShardSteadyStateAllocs pins that a shard set pays for its POI
// table once: after the first shard is open, opening another costs the
// same few allocations whatever the size of the venue table, on the
// mmap path and on the buffered path.
func TestOpenShardSteadyStateAllocs(t *testing.T) {
	for _, mode := range []struct {
		name     string
		buffered bool
	}{{"mmap", false}, {"buffered", true}} {
		t.Run(mode.name, func(t *testing.T) {
			defer SetMmapDisabled(SetMmapDisabled(mode.buffered))
			var allocs []float64
			for _, venues := range []int{1200, 4800} {
				ss := openShardFixture(t, venues)
				r, err := ss.OpenShard(0)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				allocs = append(allocs, testing.AllocsPerRun(20, func() {
					r, err := ss.OpenShard(1)
					if err != nil {
						t.Fatal(err)
					}
					if err := r.Close(); err != nil {
						t.Fatal(err)
					}
				}))
			}
			t.Logf("later shard open: %v allocs at 1200 venues, %v at 4800", allocs[0], allocs[1])
			if d := allocs[1] - allocs[0]; d < -2 || d > 2 || allocs[1] >= 64 || allocs[0] >= 64 {
				t.Fatalf("later shard open: %v allocs at 1200 venues, %v at 4800; want equal (±2) and under 64", allocs[0], allocs[1])
			}
		})
	}
}

// openShardFixture writes an uncompressed 8-shard set of 16 short
// users over a city of the given number of venues and opens it.
func openShardFixture(t *testing.T, venues int) *ShardSet {
	t.Helper()
	city := poi.DefaultCityConfig()
	city.POICount = venues
	db, err := poi.GenerateCity(city, rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{Name: "allocs", POIs: db.All()}
	s := rng.New(62)
	for id := 1; id <= 16; id++ {
		ds.Users = append(ds.Users, walkUser(s, ds.POIs, id, 1_600_000_000, 50, 10))
	}
	manifest, err := ds.SaveShards(t.TempDir(), ShardOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := OpenShardSet(manifest)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}
