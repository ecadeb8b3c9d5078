package outcome

// Native fuzz target for the GSO1 record decoder: arbitrary bytes must
// decode cleanly or fail with an error — never panic, never allocate
// unboundedly — and a successful decode must re-encode to a payload
// that decodes to the same record (the codec's fixed point).

import (
	"math"
	"reflect"
	"testing"

	"geosocial/internal/classify"
	"geosocial/internal/detect"
	"geosocial/internal/levy"
	"geosocial/internal/trace"
	"geosocial/internal/wire"
)

// seedRecord builds a small hand-rolled record exercising every column.
func seedRecord() *Record {
	r := &Record{
		UserID:  7,
		Profile: trace.Profile{Friends: 12, Badges: 3, Mayors: 1, CheckinsPerDay: 4.25},
		Visits:  3,
		Missing: 1,
		Times:   []int64{1000, 1000, 1360},
		Kinds:   []classify.Kind{classify.Honest, classify.Superfluous, classify.Honest},
		Truth:   []trace.Label{trace.LabelHonest, trace.Label("weird"), trace.LabelNone},
		GPSFlights: []levy.Flight{
			{Dist: 1.5, Time: 12}, {Dist: 0.3, Time: 4},
		},
		HonestFlights: []levy.Flight{{Dist: 1.4, Time: 11}},
		AllFlights:    []levy.Flight{{Dist: 1.4, Time: 11}, {Dist: 0.01, Time: 1}},
		Pauses:        []float64{7, 42.5},
	}
	r.Features = make([][detect.FeatureDim]float64, len(r.Times))
	for i := range r.Features {
		for j := 0; j < detect.FeatureDim; j++ {
			r.Features[i][j] = float64(i*detect.FeatureDim+j) / 3
		}
	}
	return r
}

func FuzzRecordDecode(f *testing.F) {
	var e wire.Enc
	if err := encodeRecord(&e, seedRecord()); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), e.Buf...))
	e.Reset()
	if err := encodeRecord(&e, &Record{UserID: -3}); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), e.Buf...))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data, classify.NumKinds)
		if err != nil {
			return // rejected, fine
		}
		// A record the decoder accepted must re-encode and decode to an
		// identical record (NaN payloads break DeepEqual, so skip those).
		var enc wire.Enc
		if err := encodeRecord(&enc, rec); err != nil {
			t.Fatalf("accepted record failed to re-encode: %v", err)
		}
		again, err := decodeRecord(enc.Buf, classify.NumKinds)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		if hasNaN(rec) {
			return
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("decode/encode/decode not a fixed point:\n first %+v\nsecond %+v", rec, again)
		}
	})
}

// hasNaN reports whether any float column carries a NaN (bit patterns
// survive the codec but defeat DeepEqual).
func hasNaN(r *Record) bool {
	if math.IsNaN(r.Profile.CheckinsPerDay) {
		return true
	}
	for _, x := range r.Features {
		for _, v := range x {
			if math.IsNaN(v) {
				return true
			}
		}
	}
	for _, fl := range [][]levy.Flight{r.GPSFlights, r.HonestFlights, r.AllFlights} {
		for _, f := range fl {
			if math.IsNaN(f.Dist) || math.IsNaN(f.Time) {
				return true
			}
		}
	}
	for _, p := range r.Pauses {
		if math.IsNaN(p) {
			return true
		}
	}
	return false
}
