package visits

// Segmenter is the resumable form of Detect: stay-point segmentation as
// an online fold over the GPS stream. Feed accepts any chunking of the
// trace — whole days, single fixes — and emits every visit the batch
// algorithm would have emitted from the prefix seen so far, as soon as
// it is decidable. The only state carried between feeds is the open
// tail window (the fixes since the last finalized stay decision), so
// appending a day to a user re-examines just that tail, never the whole
// history. Finish flushes the final window exactly as the batch scan
// decides it at end of trace.
//
// Detect is implemented on top of the Segmenter, which is what makes
// chunked and batch segmentation equal by construction: a window is
// only finalized when an observed fix breaks it (roam radius or time
// gap) or the trace ends, and both paths take those decisions from the
// same scan.

import (
	"fmt"
	"time"

	"geosocial/internal/geo"
	"geosocial/internal/poi"
	"geosocial/internal/trace"
)

// Segmenter carries visit detection's open stay-point state between
// feeds. Create with NewSegmenter; not safe for concurrent use.
type Segmenter struct {
	cfg      Config
	db       *poi.DB
	buf      []trace.GPSPoint // open tail window: fixes not yet finalized
	lastT    int64            // time of the last fix ever fed
	have     bool             // at least one fix has been fed
	finished bool
}

// NewSegmenter validates the configuration and returns a fresh
// segmenter. The db may be nil, in which case visits are not snapped to
// POIs.
func NewSegmenter(cfg Config, db *poi.DB) (*Segmenter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Segmenter{cfg: cfg, db: db}, nil
}

// Feed appends fixes to the stream and returns the visits that became
// decidable. Fixes must continue the trace in non-decreasing time
// order, across feeds as well as within one.
func (s *Segmenter) Feed(pts []trace.GPSPoint) ([]trace.Visit, error) {
	if s.finished {
		return nil, fmt.Errorf("visits: segmenter already finished")
	}
	for _, p := range pts {
		if s.have && p.T < s.lastT {
			return nil, fmt.Errorf("visits: GPS trace not time-ordered")
		}
		s.lastT = p.T
		s.have = true
	}
	s.buf = append(s.buf, pts...)
	return s.drain(false), nil
}

// Finish flushes the open window with the batch algorithm's
// end-of-trace decision and seals the segmenter. Idempotent; a sealed
// segmenter rejects further feeds.
func (s *Segmenter) Finish() []trace.Visit {
	if s.finished {
		return nil
	}
	s.finished = true
	out := s.drain(true)
	s.buf = nil
	return out
}

// drain runs the stay-point scan over the buffered window, emitting
// every finalized visit. A window is finalized when an observed next
// fix breaks it (gap or roam) — or unconditionally when finish is set,
// mirroring the batch scan running out of trace.
func (s *Segmenter) drain(finish bool) []trace.Visit {
	var out []trace.Visit
	for {
		n := len(s.buf)
		if n == 0 {
			return out
		}
		anchor := s.buf[0].Loc
		cosAnchor := geo.CosLat(anchor)
		j := 0
		closed := false
		for j+1 < n {
			next := s.buf[j+1]
			if time.Duration(next.T-s.buf[j].T)*time.Second > s.cfg.MaxGap {
				closed = true
				break
			}
			// Decision-identical to Distance(anchor, next.Loc) >
			// RoamRadius: certified bounds decide all but borderline
			// fixes without trigonometry (see geo/fastdist.go).
			if !geo.WithinRadius(anchor, next.Loc, cosAnchor, s.cfg.RoamRadius) {
				closed = true
				break
			}
			j++
		}
		if !closed && !finish {
			return out // open window: undecidable until more fixes arrive
		}
		if dur := time.Duration(s.buf[j].T-s.buf[0].T) * time.Second; dur >= s.cfg.MinDuration {
			v := trace.Visit{
				Start: s.buf[0].T,
				End:   s.buf[j].T,
				Loc:   centroid(s.buf[:j+1]),
				POIID: -1,
			}
			if s.db != nil {
				if p, dist, ok := s.db.Nearest(v.Loc); ok && dist <= s.cfg.SnapRadius {
					v.POIID = p.ID
					v.Category = p.Category
				}
			}
			out = append(out, v)
			s.buf = s.buf[j+1:]
		} else {
			s.buf = s.buf[1:]
		}
	}
}
