package par

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// sliceNext returns a next func streaming the given values then io.EOF.
func sliceNext(vals []int) func() (int, error) {
	i := 0
	return func() (int, error) {
		if i >= len(vals) {
			return 0, io.EOF
		}
		v := vals[i]
		i++
		return v, nil
	}
}

// noEnd is an end hook that ignores source ends.
func noEnd(int) error { return nil }

// endMark is the index recorded for a source's end event.
const endMark = -1

// recordEnds returns an end hook appending {shard, endMark} to *events,
// so ends interleave with deliveries in the sequence the caller sees.
func recordEnds(events *[][2]int) func(int) error {
	return func(s int) error {
		*events = append(*events, [2]int{s, endMark})
		return nil
	}
}

// mergeRef computes the reference merged event sequence for the given
// shard lengths: one item per live shard per round, shards in index
// order, and each shard's end in the round it is dropped (round n for
// a shard of n items).
func mergeRef(lens []int) [][2]int {
	var out [][2]int
	for round := 0; ; round++ {
		progressed := false
		for s, n := range lens {
			switch {
			case round < n:
				out = append(out, [2]int{s, round})
			case round == n:
				out = append(out, [2]int{s, endMark})
			default:
				continue
			}
			progressed = true
		}
		if !progressed {
			return out
		}
	}
}

// TestMergeStreamsOrderAndResults pins the merged-order contract across
// worker counts and uneven shard lengths: sink sees every (shard, idx,
// result) exactly once and end sees every source once, interleaved in
// the deterministic round-robin order.
func TestMergeStreamsOrderAndResults(t *testing.T) {
	lens := []int{17, 0, 5, 40, 1}
	want := mergeRef(lens)
	for _, workers := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			next := make([]func() (int, error), len(lens))
			for s, n := range lens {
				next[s] = sliceNext(seq(s, n))
			}
			var got [][2]int
			err := MergeStreams(workers, next,
				func(shard, idx int, v int) (int, error) {
					if v%5 == 0 { // stagger completions
						time.Sleep(time.Millisecond)
					}
					return v * 2, nil
				},
				func(shard, idx int, r int) error {
					if wantV := (shard*1000 + idx) * 2; r != wantV {
						t.Errorf("shard %d idx %d: result %d, want %d", shard, idx, r, wantV)
					}
					got = append(got, [2]int{shard, idx})
					return nil
				},
				recordEnds(&got))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("saw %d events, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("event %d = %v, want %v (merged order broken)", i, got[i], want[i])
				}
			}
		})
	}
}

// seq returns shard s's values: s*1000, s*1000+1, ...
func seq(s, n int) []int {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = s*1000 + i
	}
	return vals
}

// TestMergeStreamsEdges covers zero sources, all-empty sources (each
// still ends, in index order) and a short single source.
func TestMergeStreamsEdges(t *testing.T) {
	if err := MergeStreams(8, nil,
		func(s, i, v int) (int, error) { return v, nil },
		func(s, i, r int) error { return nil },
		func(s int) error { t.Error("end called with no sources"); return nil }); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		var ends [][2]int
		err := MergeStreams(workers,
			[]func() (int, error){sliceNext(nil), sliceNext(nil)},
			func(s, i, v int) (int, error) { t.Error("f called on empty streams"); return 0, nil },
			func(s, i, r int) error { t.Error("sink called on empty streams"); return nil },
			recordEnds(&ends))
		if err != nil {
			t.Fatal(err)
		}
		if want := mergeRef([]int{0, 0}); fmt.Sprint(ends) != fmt.Sprint(want) {
			t.Errorf("workers=%d: empty sources ended as %v, want %v", workers, ends, want)
		}
		var got []int
		err = MergeStreams(workers,
			[]func() (int, error){sliceNext([]int{7, 8, 9})},
			func(s, i, v int) (int, error) { return v, nil },
			func(s, i, r int) error { got = append(got, r); return nil },
			noEnd)
		if err != nil || len(got) != 3 || got[0] != 7 || got[2] != 9 {
			t.Fatalf("single source: got %v, err %v", got, err)
		}
	}
}

// TestMergeStreamsEarliestError asserts the deterministic error
// contract: the reported error is the one at the earliest merged
// position, not whichever goroutine failed first.
func TestMergeStreamsEarliestError(t *testing.T) {
	// Shard 0 fails at idx 5 (merged position: round 5), shard 1 at
	// idx 2 (round 2). The earliest merged failure is shard 1's, even
	// though shard 0's items complete faster.
	for _, workers := range []int{1, 4, 16} {
		next := []func() (int, error){sliceNext(seq(0, 20)), sliceNext(seq(1, 20))}
		err := MergeStreams(workers, next,
			func(shard, idx int, v int) (int, error) {
				if shard == 0 && idx == 5 {
					return 0, fmt.Errorf("shard 0 item 5 failed")
				}
				if shard == 1 && idx == 2 {
					time.Sleep(2 * time.Millisecond) // fail slowly
					return 0, fmt.Errorf("shard 1 item 2 failed")
				}
				return v, nil
			},
			func(shard, idx int, r int) error { return nil },
			noEnd)
		if err == nil || err.Error() != "shard 1 item 2 failed" {
			t.Errorf("workers=%d: err = %v, want shard 1 item 2", workers, err)
		}
	}
}

// TestMergeStreamsEndError reports an end error at its merged position:
// shard 0 (3 items) ends in round 3 ahead of shard 1's round-3 item, but
// after shard 1's round-2 item.
func TestMergeStreamsEndError(t *testing.T) {
	endErr := errors.New("shard 0 end failed")
	for _, workers := range []int{1, 4, 16} {
		for _, failAt := range []int{2, 3} {
			var events [][2]int
			record := recordEnds(&events)
			err := MergeStreams(workers,
				[]func() (int, error){sliceNext(seq(0, 3)), sliceNext(seq(1, 10))},
				func(shard, idx int, v int) (int, error) {
					if shard == 1 && idx == failAt {
						return 0, fmt.Errorf("shard 1 item %d failed", idx)
					}
					return v, nil
				},
				func(shard, idx int, r int) error {
					events = append(events, [2]int{shard, idx})
					return nil
				},
				func(s int) error {
					record(s)
					return endErr
				})
			want := "shard 1 item 2 failed"
			if failAt == 3 {
				want = endErr.Error()
			}
			if err == nil || err.Error() != want {
				t.Errorf("workers=%d failAt=%d: err = %v, want %q", workers, failAt, err, want)
			}
			// Rounds 0 and 1 deliver both shards; round 2 delivers shard 0
			// and then either fails on shard 1 or delivers it and ends 0.
			wantEvents := mergeRef([]int{3, 10})[:5]
			if failAt == 3 {
				wantEvents = mergeRef([]int{3, 10})[:7]
			}
			if fmt.Sprint(events) != fmt.Sprint(wantEvents) {
				t.Errorf("workers=%d failAt=%d: events %v, want %v", workers, failAt, events, wantEvents)
			}
		}
	}
}

// TestMergeStreamsSourceError propagates a failing next at its merged
// position; end never runs for the failing source, nor for a source
// that would have ended after the stop.
func TestMergeStreamsSourceError(t *testing.T) {
	srcErr := errors.New("shard 1 unreadable")
	for _, workers := range []int{1, 8} {
		var delivered [][2]int
		err := MergeStreams(workers,
			[]func() (int, error){
				sliceNext(seq(0, 10)),
				func() (int, error) { return 0, srcErr },
			},
			func(shard, idx int, v int) (int, error) { return v, nil },
			func(shard, idx int, r int) error {
				delivered = append(delivered, [2]int{shard, idx})
				return nil
			},
			recordEnds(&delivered))
		if !errors.Is(err, srcErr) {
			t.Errorf("workers=%d: err = %v, want source error", workers, err)
		}
		// Merged order: (0,0) delivers, then shard 1's position fails.
		if len(delivered) != 1 || delivered[0] != [2]int{0, 0} {
			t.Errorf("workers=%d: delivered %v before the error, want [[0 0]]", workers, delivered)
		}
	}
}

// TestMergeStreamsSinkError stops the run when sink fails: sink is not
// called again, and end does not run for a source whose end comes after
// the stop.
func TestMergeStreamsSinkError(t *testing.T) {
	sinkErr := errors.New("sink full")
	for _, workers := range []int{1, 8} {
		for _, lens := range [][]int{{100, 100}, {3, 100}} {
			next := make([]func() (int, error), len(lens))
			for s, n := range lens {
				next[s] = sliceNext(seq(s, n))
			}
			seen := 0
			var ends [][2]int
			err := MergeStreams(workers, next,
				func(shard, idx int, v int) (int, error) { return v, nil },
				func(shard, idx int, r int) error {
					seen++
					if seen == 6 {
						return sinkErr
					}
					return nil
				},
				recordEnds(&ends))
			if !errors.Is(err, sinkErr) {
				t.Errorf("workers=%d lens=%v: err = %v, want sink error", workers, lens, err)
			}
			if seen != 6 {
				t.Errorf("workers=%d lens=%v: sink called %d times after error, want 6", workers, lens, seen)
			}
			// With lens {3, 100}, shard 0's end falls right after the
			// sixth delivery, so it must not run.
			if len(ends) != 0 {
				t.Errorf("workers=%d lens=%v: end ran after the stop: %v", workers, lens, ends)
			}
		}
	}
}

// TestMergeStreamsBoundedInFlight verifies the memory contract across
// all sources: items pulled but not yet delivered stay O(workers +
// shards) even with a slow consumer.
func TestMergeStreamsBoundedInFlight(t *testing.T) {
	const workers, shards, perShard = 4, 3, 100
	var pulled, delivered atomic.Int64
	var maxInFlight atomic.Int64
	next := make([]func() (int, error), shards)
	for s := 0; s < shards; s++ {
		i := 0
		next[s] = func() (int, error) {
			if i >= perShard {
				return 0, io.EOF
			}
			i++
			p := pulled.Add(1)
			if inFlight := p - delivered.Load(); inFlight > maxInFlight.Load() {
				maxInFlight.Store(inFlight)
			}
			return i, nil
		}
	}
	err := MergeStreams(workers, next,
		func(shard, idx int, v int) (int, error) { return v, nil },
		func(shard, idx int, r int) error {
			time.Sleep(200 * time.Microsecond) // slow consumer
			delivered.Add(1)
			return nil
		},
		noEnd)
	if err != nil {
		t.Fatal(err)
	}
	// Window ~2*workers+shards buffered, plus workers in flight and
	// hand-over slack.
	limit := int64(2*workers + shards + workers + 2*shards + 2)
	if got := maxInFlight.Load(); got > limit {
		t.Errorf("max in-flight items %d exceeds bound %d", got, limit)
	}
}

// TestMergeStreamsConcurrencyCap verifies f never runs on more than the
// requested number of workers at once, across all sources combined.
func TestMergeStreamsConcurrencyCap(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	next := []func() (int, error){sliceNext(seq(0, 50)), sliceNext(seq(1, 50)), sliceNext(seq(2, 50))}
	err := MergeStreams(workers, next,
		func(shard, idx int, v int) (int, error) {
			c := cur.Add(1)
			defer cur.Add(-1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			return v, nil
		},
		func(shard, idx int, r int) error { return nil },
		noEnd)
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", got, workers)
	}
}
