package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"geosocial/internal/geo"
	"geosocial/internal/poi"
	"geosocial/internal/rng"
	"geosocial/internal/wire"
)

// walkUser builds user id's traces starting at t0: a random walk of
// fixes one minute apart (some indoor) and a checkin every fixesPer
// fixes at a random venue, with truth labels that include one outside
// the label table.
func walkUser(s *rng.Stream, pois []poi.POI, id int, t0 int64, fixes, fixesPer int) *User {
	labels := []Label{LabelHonest, LabelRemote, LabelSuperfluous, "unlabelled-venue"}
	u := &User{ID: id, Days: float64(fixes) / 1440, Profile: Profile{Friends: s.Intn(50), CheckinsPerDay: s.Range(0, 5)}}
	loc := pois[s.Intn(len(pois))].Loc
	for i := 0; i < fixes; i++ {
		loc = geo.LatLon{Lat: loc.Lat + s.Norm(0, 1e-4), Lon: loc.Lon + s.Norm(0, 1e-4)}
		u.GPS = append(u.GPS, GPSPoint{T: t0 + int64(i)*60, Loc: loc, Indoor: s.Bool(0.1)})
		if i%fixesPer == fixesPer-1 {
			p := pois[s.Intn(len(pois))]
			u.Checkins = append(u.Checkins, Checkin{
				T: t0 + int64(i)*60, POIID: p.ID, POIName: p.Name, Category: p.Category, Loc: p.Loc,
				Truth: labels[s.Intn(len(labels))],
			})
		}
	}
	return u
}

// shardFixture writes a one-shard base corpus of four users with
// baseFixes fixes each over a city of the given number of venues,
// appends a generation that extends two of them by deltaFixes fixes, and
// returns the bytes of the base shard and of the delta shard.
func shardFixture(tb testing.TB, venues, baseFixes, deltaFixes int) (base, delta []byte) {
	tb.Helper()
	city := poi.DefaultCityConfig()
	city.POICount = venues
	db, err := poi.GenerateCity(city, rng.New(59))
	if err != nil {
		tb.Fatal(err)
	}
	pois := db.All()
	s := rng.New(60)
	const t0, day = int64(1_600_000_000), int64(86400)
	ds := &Dataset{Name: "fixture", POIs: pois}
	for id := 1; id <= 4; id++ {
		ds.Users = append(ds.Users, walkUser(s, pois, id, t0, baseFixes, 40))
	}
	dir := tb.TempDir()
	manifest, err := ds.SaveShards(dir, ShardOptions{Shards: 1})
	if err != nil {
		tb.Fatal(err)
	}
	aw, err := OpenAppend(manifest)
	if err != nil {
		tb.Fatal(err)
	}
	for id := 1; id <= 2; id++ {
		if err := aw.WriteUser(walkUser(s, pois, id, t0+7*day, deltaFixes, 60)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		tb.Fatal(err)
	}
	ss, err := OpenShardSet(manifest)
	if err != nil {
		tb.Fatal(err)
	}
	shards := ss.Manifest.Shards
	if len(shards) != 2 || shards[0].Delta || !shards[1].Delta {
		tb.Fatalf("fixture shards %+v, want one base and one delta shard", shards)
	}
	if base, err = os.ReadFile(filepath.Join(dir, shards[0].File)); err != nil {
		tb.Fatal(err)
	}
	if delta, err = os.ReadFile(filepath.Join(dir, shards[1].File)); err != nil {
		tb.Fatal(err)
	}
	return base, delta
}

// TestDeltaShardTruncation: every strict byte prefix of a delta shard
// must fail to decode — the GSB1 sentinel/trailer discipline makes
// truncation detectable at any byte.
//
// Decoding raw[:n] from scratch for every n is quadratic in the shard
// size, so the test decodes each prefix in a way that reads the same
// bytes with the same reader state but skips the repeated work. Cuts
// inside the header reopen raw[:n] through one reused bufio.Reader.
// Cuts at or after the first frame replay the stream from the start of
// the frame that holds the cut, with the state one full walk reached
// there (seen IDs, the same header and intern table), so each of them
// reads at most one frame. A replay's frame reader counts from zero, so
// the one replay that reaches the trailer gets the trailer restated for
// the frames it reads; a cut never completes the trailer, so no cut
// depends on the count. The replay reader is reused across cuts, so its
// frame buffer pool stays warm.
func TestDeltaShardTruncation(t *testing.T) {
	_, raw := shardFixture(t, 1200, 1000, 4000)

	// One full walk records each frame's start offset and the reader
	// state there; the last mark is the start of the sentinel+trailer.
	type mark struct {
		off  int
		seen map[int]struct{}
	}
	r := bytes.NewReader(raw)
	br := bufio.NewReaderSize(r, 1<<16)
	full, err := NewStreamReader(br)
	if err != nil {
		t.Fatalf("full delta shard header: %v", err)
	}
	var marks []mark
	for {
		marks = append(marks, mark{off: len(raw) - r.Len() - br.Buffered(), seen: maps.Clone(full.seen)})
		if _, err := full.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("full delta shard failed to decode: %v", err)
		}
	}
	if len(marks) < 3 {
		t.Fatalf("delta shard holds %d frames, want at least 2", len(marks)-1)
	}

	for n := 0; n < marks[0].off; n++ {
		br.Reset(bytes.NewReader(raw[:n]))
		if _, err := ReadBinary(br); err == nil {
			t.Fatalf("truncation to %d of %d bytes (header) decoded cleanly", n, len(raw))
		}
	}
	rs := &StreamReader{name: full.name, tab: full.tab}
	last := len(marks) - 1
	replay := func(k, end int) error {
		m := marks[k]
		tail := raw[m.off:end]
		if end == len(raw) {
			var restated wire.Enc
			restated.Buf = append(restated.Buf, raw[m.off:marks[last].off]...)
			restated.Uvarint(0)
			restated.Uvarint(uint64(last - k))
			tail = restated.Buf
		}
		br.Reset(bytes.NewReader(tail))
		rs.frames, rs.seen = wire.NewFrames(wire.NewReader(br), maxFrameBytes), maps.Clone(m.seen)
		for {
			if _, err := rs.Next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	// The replay is only sound if every mark replays the rest of the
	// stream cleanly.
	for k := range marks {
		if err := replay(k, len(raw)); err != nil {
			t.Fatalf("replay from mark %d failed: %v", k, err)
		}
	}
	k := 0
	for n := marks[0].off; n < len(raw); n++ {
		for k+1 < len(marks) && marks[k+1].off <= n {
			k++
		}
		if replay(k, n) == nil {
			where := fmt.Sprintf("frame %d", k)
			if k == last {
				where = "trailer"
			}
			t.Fatalf("truncation to %d of %d bytes (%s) decoded cleanly", n, len(raw), where)
		}
	}
}
