package par

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// The TestMapStream* tests pin the one-source case of MergeStreams: a
// single ordered stream of unknown length mapped on a worker pool and
// delivered in input order.

// TestMapStreamOrderAndResults pins the core contract for several worker
// counts: sink sees every (index, result) pair exactly once, strictly in
// input order, regardless of completion order, and end runs once after
// the last item.
func TestMapStreamOrderAndResults(t *testing.T) {
	vals := make([]int, 200)
	for i := range vals {
		vals[i] = i * 3
	}
	for _, workers := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var got []int
			ends := 0
			err := MergeStreams(workers, []func() (int, error){sliceNext(vals)},
				func(s, i, v int) (int, error) {
					// Stagger completions so out-of-order finishes are real.
					if i%7 == 0 {
						time.Sleep(time.Millisecond)
					}
					return v + 1, nil
				},
				func(s, i, r int) error {
					if i != len(got) {
						t.Errorf("sink index %d, want %d", i, len(got))
					}
					if ends != 0 {
						t.Errorf("sink index %d after end", i)
					}
					got = append(got, r)
					return nil
				},
				func(s int) error { ends++; return nil })
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(vals) {
				t.Fatalf("sink saw %d items, want %d", len(got), len(vals))
			}
			for i, r := range got {
				if r != vals[i]+1 {
					t.Fatalf("got[%d] = %d, want %d", i, r, vals[i]+1)
				}
			}
			if ends != 1 {
				t.Errorf("end ran %d times, want 1", ends)
			}
		})
	}
}

// TestMapStreamEmpty covers the immediate-EOF stream: nothing is mapped
// or delivered, and the source still ends.
func TestMapStreamEmpty(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var ends [][2]int
		err := MergeStreams(workers, []func() (int, error){sliceNext(nil)},
			func(s, i, v int) (int, error) { t.Error("f called on empty stream"); return 0, nil },
			func(s, i, r int) error { t.Error("sink called on empty stream"); return nil },
			recordEnds(&ends))
		if err != nil {
			t.Fatal(err)
		}
		if want := mergeRef([]int{0}); fmt.Sprint(ends) != fmt.Sprint(want) {
			t.Errorf("workers=%d: empty source ended as %v, want %v", workers, ends, want)
		}
	}
}

// TestMapStreamLowestIndexError asserts the deterministic error contract:
// when several items fail, the reported error is the lowest-index one,
// exactly as the serial loop would have returned.
func TestMapStreamLowestIndexError(t *testing.T) {
	vals := make([]int, 100)
	for _, workers := range []int{1, 4, 16} {
		err := MergeStreams(workers, []func() (int, error){sliceNext(vals)},
			func(s, i, v int) (int, error) {
				if i >= 30 {
					return 0, fmt.Errorf("item %d failed", i)
				}
				// Let high indices fail fast while low ones dawdle.
				time.Sleep(time.Millisecond)
				return 0, nil
			},
			func(s, i, r int) error { return nil },
			noEnd)
		if err == nil || err.Error() != "item 30 failed" {
			t.Errorf("workers=%d: err = %v, want item 30", workers, err)
		}
	}
}

// TestMapStreamSourceError propagates a failing next; end never runs
// for the failed source.
func TestMapStreamSourceError(t *testing.T) {
	srcErr := errors.New("stream broke")
	for _, workers := range []int{1, 8} {
		calls := 0
		var ends [][2]int
		err := MergeStreams(workers,
			[]func() (int, error){func() (int, error) {
				calls++
				if calls > 5 {
					return 0, srcErr
				}
				return calls, nil
			}},
			func(s, i, v int) (int, error) { return v, nil },
			func(s, i, r int) error { return nil },
			recordEnds(&ends))
		if !errors.Is(err, srcErr) {
			t.Errorf("workers=%d: err = %v, want stream error", workers, err)
		}
		if len(ends) != 0 {
			t.Errorf("workers=%d: end ran for a failed source: %v", workers, ends)
		}
	}
}

// TestMapStreamSinkError stops the run on a sink failure.
func TestMapStreamSinkError(t *testing.T) {
	vals := make([]int, 500)
	sinkErr := errors.New("sink full")
	for _, workers := range []int{1, 8} {
		seen := 0
		var ends [][2]int
		err := MergeStreams(workers, []func() (int, error){sliceNext(vals)},
			func(s, i, v int) (int, error) { return v, nil },
			func(s, i, r int) error {
				seen++
				if seen == 10 {
					return sinkErr
				}
				return nil
			},
			recordEnds(&ends))
		if !errors.Is(err, sinkErr) {
			t.Errorf("workers=%d: err = %v, want sink error", workers, err)
		}
		if seen != 10 {
			t.Errorf("workers=%d: sink called %d times after error, want 10", workers, seen)
		}
		if len(ends) != 0 {
			t.Errorf("workers=%d: end ran after the stop: %v", workers, ends)
		}
	}
}

// TestMapStreamBoundedInFlight verifies the memory contract: the number
// of items pulled from next but not yet delivered to sink never exceeds
// the in-flight window (O(workers)), even with a slow consumer.
func TestMapStreamBoundedInFlight(t *testing.T) {
	const workers = 4
	var pulled, delivered atomic.Int64
	var maxInFlight atomic.Int64
	n := 300
	err := MergeStreams(workers,
		[]func() (int, error){func() (int, error) {
			p := pulled.Add(1)
			if p > int64(n) {
				return 0, io.EOF
			}
			if inFlight := p - delivered.Load(); inFlight > maxInFlight.Load() {
				maxInFlight.Store(inFlight)
			}
			return int(p), nil
		}},
		func(s, i, v int) (int, error) { return v, nil },
		func(s, i, r int) error {
			time.Sleep(200 * time.Microsecond) // slow consumer
			delivered.Add(1)
			return nil
		},
		noEnd)
	if err != nil {
		t.Fatal(err)
	}
	// Window is 2*workers slots plus one being handed over; leave slack
	// for the race between the Add and the Load above.
	limit := int64(2*workers + workers + 2)
	if got := maxInFlight.Load(); got > limit {
		t.Errorf("max in-flight items %d exceeds bound %d", got, limit)
	}
}

// TestMapStreamConcurrencyCap verifies f never runs on more than the
// requested number of workers at once.
func TestMapStreamConcurrencyCap(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	vals := make([]int, 100)
	err := MergeStreams(workers, []func() (int, error){sliceNext(vals)},
		func(s, i, v int) (int, error) {
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
		func(s, i, r int) error { return nil },
		noEnd)
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", got, workers)
	}
}
