package visits

import (
	"reflect"
	"testing"

	"geosocial/internal/rng"
	"geosocial/internal/trace"
)

// randomTrace builds a mixed stay/move trace: mostly small wobbles with
// occasional multi-km jumps and the odd long silence.
func randomTrace(seed uint64, n int) trace.GPSTrace {
	s := rng.New(seed)
	var tr trace.GPSTrace
	tm := int64(0)
	loc := 0.0
	for i := 0; i < n; i++ {
		tm += 30 + s.Int63n(240)
		if s.Bool(0.05) {
			tm += 1200 // silence beyond MaxGap
		}
		if s.Bool(0.1) {
			loc += s.Range(-2000, 2000)
		} else {
			loc += s.Range(-20, 20)
		}
		tr = append(tr, trace.GPSPoint{T: tm, Loc: at(loc), Indoor: s.Bool(0.2)})
	}
	return tr
}

// feedChunked runs a trace through a fresh segmenter in chunks of the
// given size and returns the full visit list.
func feedChunked(t *testing.T, tr trace.GPSTrace, cfg Config, chunk int) []trace.Visit {
	t.Helper()
	s, err := NewSegmenter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []trace.Visit
	for i := 0; i < len(tr); i += chunk {
		end := i + chunk
		if end > len(tr) {
			end = len(tr)
		}
		vs, err := s.Feed(tr[i:end])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, vs...)
	}
	return append(out, s.Finish()...)
}

func TestSegmenterChunkedEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	for seed := uint64(1); seed <= 20; seed++ {
		tr := randomTrace(seed, 300)
		want, err := Detect(tr, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 3, 17, 97, len(tr)} {
			got := feedChunked(t, tr, cfg, chunk)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d chunk %d: %d visits, batch %d visits",
					seed, chunk, len(got), len(want))
			}
		}
	}
}

// TestSegmenterTailOnlyState: after a window-breaking fix the segmenter
// holds only the open tail, so appending a day carries O(tail) state, not
// the user's history.
func TestSegmenterTailOnlyState(t *testing.T) {
	cfg := DefaultConfig()
	s, err := NewSegmenter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Ten days of per-minute fixes, a 2 km move every 100 fixes.
	tm := int64(0)
	loc := 0.0
	for i := 0; i < 10*1440; i++ {
		tm += 60
		if i%100 == 99 {
			loc += 2000
		}
		if _, err := s.Feed(trace.GPSTrace{{T: tm, Loc: at(loc)}}); err != nil {
			t.Fatal(err)
		}
		if p := len(s.buf); p > 101 {
			t.Fatalf("pending %d fixes after %d: open window leaking history", p, i+1)
		}
	}
}

func TestSegmenterOrderingAcrossFeeds(t *testing.T) {
	s, err := NewSegmenter(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Feed(trace.GPSTrace{{T: 600, Loc: at(0)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Feed(trace.GPSTrace{{T: 0, Loc: at(0)}}); err == nil {
		t.Fatal("time regression across feeds accepted")
	}
}

func TestSegmenterFeedAfterFinish(t *testing.T) {
	s, err := NewSegmenter(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Finish()
	if vs := s.Finish(); vs != nil {
		t.Fatalf("second Finish returned %d visits", len(vs))
	}
	if _, err := s.Feed(trace.GPSTrace{{T: 0, Loc: at(0)}}); err == nil {
		t.Fatal("feed after finish accepted")
	}
}
