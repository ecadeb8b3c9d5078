package geosocial

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"geosocial/internal/checkpoint"
	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/detect"
	"geosocial/internal/geo"
	"geosocial/internal/levy"
	"geosocial/internal/outcome"
	"geosocial/internal/poi"
	"geosocial/internal/trace"
)

// TestFormatBytesPinned pins the bytes of every binary format the
// pipeline writes — GSB1 (single file and shards), the shard manifest,
// the POI checksum, GSO1 and GSF1 — to sha256 constants. The other
// byte-identity suites compare one run with another, so a codec change
// that altered every writer alike would pass them; this test does not.
// A constant may only change together with a format version bump.
func TestFormatBytesPinned(t *testing.T) {
	ds := pinDataset()
	dir := t.TempDir()
	got := map[string]string{}
	sum := func(name string, b []byte) { got[name] = fmt.Sprintf("%x", sha256.Sum256(b)) }
	readSum := func(name, path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum(name, b)
	}

	var bin bytes.Buffer
	if err := ds.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	sum("gsb1", bin.Bytes())

	manifest, err := ds.SaveShards(dir, trace.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	readSum("shard-0", filepath.Join(dir, "pin-0000.bin"))
	readSum("shard-1", filepath.Join(dir, "pin-0001.bin"))
	readSum("manifest", manifest)
	got["poi-checksum"] = trace.POIChecksum(ds.POIs)

	recs := pinRecords()
	logPath := filepath.Join(dir, "pin.gso")
	w, err := outcome.Create(logPath, ds.Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	readSum("gso1", logPath)

	ckptDir := filepath.Join(dir, "ckpt")
	st, err := checkpoint.Open(ckptDir, "sha256:manifest", "params-v1")
	if err != nil {
		t.Fatal(err)
	}
	fr, err := st.Begin("sha256:shard")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		data, err := outcome.EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := fr.AddRecord(data); err != nil {
			t.Fatal(err)
		}
	}
	meta := &checkpoint.Meta{
		Users:     3,
		Partition: core.Partition{Checkins: 4, Visits: 3, Honest: 2, Extraneous: 2, Missing: 1},
		Taxonomy:  map[string]int{"honest": 2, "superfluous": 1, "remote": 1},
		Truth:     core.TruthCounts{Labeled: 3, Agree: 2, MatchedHonest: 1, MatchedTotal: 2, HonestTotal: 2},
	}
	if err := fr.Commit(meta, []int{42, -5, 7}); err != nil {
		t.Fatal(err)
	}
	frags, err := filepath.Glob(filepath.Join(ckptDir, "ckpt-*.gsf"))
	if err != nil || len(frags) != 1 {
		t.Fatalf("checkpoint fragments %v (err %v), want one", frags, err)
	}
	readSum("gsf1", frags[0])

	for _, pin := range []struct{ name, sum string }{
		{"gsb1", "2042036f9c0d317561b0e53a69b793081d597a5858e88810ed94212333a66c92"},
		{"shard-0", "a74b677f75e2a6636bfd9b5e2f898ee613c63c5ae909da2367d428e9d5153e16"},
		{"shard-1", "9e180523cc1c4195178e3b32d700dee37ae8604b447b038172465ad158cb5acd"},
		{"manifest", "0b11cfaa8dbb3bf7f3604e5007f69984eda64edc6cdcaf037c468981e4b16d58"},
		{"poi-checksum", "sha256:0190688972963a319c9a306ec5809ecb6f745155d7bb02a49e277b868312083b"},
		{"gso1", "25ccae47bba2e5184b01a73da02d725eee9eeafbeddbaa49c48c57bea88f7b40"},
		{"gsf1", "ba45e56c0b1a3a929f3e4888324dcdc5d9a9688887f16c7afa2ef731b8239680"},
	} {
		if got[pin.name] != pin.sum {
			t.Errorf("%s: got %s, pinned %s", pin.name, got[pin.name], pin.sum)
		}
	}
}

// pinDataset is a hand-built dataset touching every GSB1 field: two
// POIs, negative coordinates, an indoor fix, a user with no GPS, and a
// checkin whose truth label is outside the label table.
func pinDataset() *trace.Dataset {
	a := geo.LatLon{Lat: -33.8688, Lon: -151.2093}
	b := geo.LatLon{Lat: -33.8710, Lon: -151.2050}
	return &trace.Dataset{
		Name: "pin",
		POIs: []poi.POI{
			{ID: 0, Name: "Cafe", Category: poi.Food, Loc: a, Popularity: 2.5},
			{ID: 1, Name: "Shop", Category: poi.Shop, Loc: b, Popularity: 0.125},
		},
		Users: []*trace.User{
			{
				ID:      42,
				Days:    1.5,
				Profile: trace.Profile{Friends: 10, Badges: 2, Mayors: 1, CheckinsPerDay: 2.75},
				GPS: trace.GPSTrace{
					{T: 1000, Loc: a},
					{T: 1060, Loc: a, Indoor: true},
					{T: 1300, Loc: b},
				},
				Checkins: trace.CheckinTrace{
					{T: 1010, POIID: 0, POIName: "Cafe", Category: poi.Food, Loc: a, Truth: trace.LabelHonest},
					{T: 1310, POIID: 1, POIName: "Shop", Category: poi.Shop, Loc: b, Truth: trace.Label("mystery")},
				},
			},
			{
				ID:   -5,
				Days: 2,
				Checkins: trace.CheckinTrace{
					{T: 500, POIID: 1, POIName: "Shop", Category: poi.Shop, Loc: b, Truth: trace.LabelRemote},
				},
			},
			{
				ID:   7,
				Days: 0.5,
				GPS:  trace.GPSTrace{{T: -20, Loc: b}, {T: 40, Loc: a}},
			},
		},
	}
}

// pinRecords are two outcome records covering every GSO1 column,
// including an out-of-table truth label, in non-canonical order.
func pinRecords() []*outcome.Record {
	r1 := &outcome.Record{
		UserID:        42,
		Profile:       trace.Profile{Friends: 10, Badges: 2, Mayors: 1, CheckinsPerDay: 2.75},
		Visits:        2,
		Missing:       1,
		Times:         []int64{1010, 1310},
		Kinds:         []classify.Kind{classify.Honest, classify.Superfluous},
		Truth:         []trace.Label{trace.LabelHonest, trace.Label("mystery")},
		GPSFlights:    []levy.Flight{{Dist: 0.4, Time: 5}},
		HonestFlights: []levy.Flight{{Dist: 0.3, Time: 4}},
		AllFlights:    []levy.Flight{{Dist: 0.3, Time: 4}, {Dist: 1.25, Time: 9}},
		Pauses:        []float64{1, 4.5},
	}
	r1.Features = make([][detect.FeatureDim]float64, len(r1.Times))
	for i := range r1.Features {
		for j := range r1.Features[i] {
			r1.Features[i][j] = float64(i*detect.FeatureDim+j) / 7
		}
	}
	r2 := &outcome.Record{UserID: -5, Profile: trace.Profile{Badges: 1}}
	return []*outcome.Record{r1, r2}
}
