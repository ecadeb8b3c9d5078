package geosocial

// Incremental revalidation — the live side of the append container — is
// the validation engine's update plan: slots seeded from the previous
// result, superseded contributions subtracted during the walk over the
// previous outcome log, the touched users accounted afresh.

import (
	"fmt"
	"maps"
	"slices"

	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/outcome"
	"geosocial/internal/poi"
	"geosocial/internal/trace"
)

// UpdateValidation incrementally updates a previous validation of the
// shard set at path. prev is the StreamResult of the earlier run (its
// Shards must be a prefix of the current manifest) and prevLog the
// outcome log that run wrote; both are required — the log is where the
// superseded per-user contributions come from. Only users touched by
// the appended generations are revalidated: their delta frames are
// folded onto the frames scanned (by cheap ID peek) from the earlier
// shards, the folded users run through the standard pipeline, and their
// old contributions are swapped for the new ones. When opts.OutcomeLog
// is set the previous log is compacted into it with the touched users'
// records superseded.
//
// The returned result — and the rewritten log — is byte-identical to
// ValidateFileOpts on the same manifest (a cold revalidation of every
// user), for any worker count and any split of the appended data.
// opts.CheckpointDir is ignored: generational sets do not checkpoint.
func UpdateValidation(path string, prev *StreamResult, prevLog string, opts StreamOptions) (*StreamResult, error) {
	if prev == nil {
		return nil, fmt.Errorf("geosocial: update: no previous result")
	}
	if prevLog == "" {
		return nil, fmt.Errorf("geosocial: update: previous outcome log required")
	}
	ss, err := trace.OpenShardSet(path)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	if ss.Manifest.Name != prev.Name {
		return nil, fmt.Errorf("geosocial: update: manifest is dataset %q, previous result is %q",
			ss.Manifest.Name, prev.Name)
	}
	if ss.Manifest.Generation <= prev.Generation {
		return nil, fmt.Errorf("geosocial: update: manifest generation %d is not newer than previous result's %d",
			ss.Manifest.Generation, prev.Generation)
	}
	old := len(prev.Shards)
	if old == 0 || old >= len(ss.Manifest.Shards) {
		return nil, fmt.Errorf("geosocial: update: previous result has %d shards, manifest has %d",
			old, len(ss.Manifest.Shards))
	}
	for i := 0; i < old; i++ {
		if ss.Manifest.Shards[i].File != prev.Shards[i].Path {
			return nil, fmt.Errorf("geosocial: update: shard %d is %s, previous result has %s",
				i, ss.Manifest.Shards[i].File, prev.Shards[i].Path)
		}
	}
	for i := old; i < len(ss.Manifest.Shards); i++ {
		info := ss.Manifest.Shards[i]
		if !info.Delta || info.Generation <= prev.Generation {
			return nil, fmt.Errorf("geosocial: update: shard %s is not an appended delta (generation %d after %d)",
				info.File, info.Generation, prev.Generation)
		}
	}
	if ss.Manifest.Shards[0].Delta {
		return nil, fmt.Errorf("geosocial: update: shard set has no base shards")
	}

	lf, err := outcome.Open(prevLog)
	if err != nil {
		return nil, fmt.Errorf("geosocial: update: %w", err)
	}
	logName := lf.Name()
	lf.Close()
	if logName != ss.Manifest.Name {
		return nil, fmt.Errorf("geosocial: update: outcome log is dataset %q, manifest is %q",
			logName, ss.Manifest.Name)
	}

	// The touched users: every user with a frame in an appended shard,
	// with all its frames — the earlier shards are read by ID peek — and
	// its home shard, the first holding a frame of it (the cold path's
	// attribution rule).
	ds, err := foldIndex(opts.Spans, func() (*trace.DeltaSet, error) { return ss.MergeSince(old) })
	if err != nil {
		return nil, err
	}
	pois, err := ss.POIs()
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	db, err := poi.NewDB(pois)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}

	// Seed the slots from the previous result. It carries taxonomy only
	// in aggregate, and the log walk below rebuilds truth counts only in
	// aggregate, so both live in slot 0; their per-shard split matters
	// only to checkpoint fragments, which updates never write.
	e := newEngine(prev.Name, db, shardLabels(ss), opts)
	e.records = opts.OutcomeLog != ""
	copy(e.stats, prev.Shards)
	maps.Copy(e.taxs[0], prev.Taxonomy)
	touched := ds.IDs()
	for _, id := range touched {
		e.instrument(ds.Home(id), false, true, false)
	}
	rs, err := e.foldUsers(ds, touched)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}

	// Walk the previous log: every record feeds the truth counts (the
	// result retains only the derived score), and a superseded record's
	// contributions are subtracted from its home shard.
	pending := make(map[int]bool, len(touched))
	for _, id := range touched {
		if ds.Home(id) < old {
			pending[id] = true
		}
	}
	var stale core.TruthAccum
	observe := func(rec *outcome.Record, superseded bool) error {
		rec.AddTruth(&e.truths[0])
		if !superseded {
			return nil
		}
		home := ds.Home(rec.UserID)
		if home < 0 || home >= old {
			return fmt.Errorf("log has user %d, shards do not", rec.UserID)
		}
		delete(pending, rec.UserID)
		rec.AddTruth(&stale)
		var p core.Partition
		rec.AddTo(&p)
		e.stats[home].Partition.Subtract(p)
		e.stats[home].Users--
		for k, c := range rec.Counts() {
			if c > 0 {
				e.taxs[0][classify.Kind(k).String()] -= c
			}
		}
		return nil
	}
	if opts.OutcomeLog != "" {
		recs := make([]*outcome.Record, len(rs))
		for i, r := range rs {
			recs[i] = r.rec
		}
		err = outcome.Append(prevLog, opts.OutcomeLog, recs, observe)
	} else {
		err = outcome.Scan(prevLog, func(rec *outcome.Record) error {
			_, superseded := slices.BinarySearch(touched, rec.UserID)
			return observe(rec, superseded)
		})
	}
	if err != nil {
		return nil, fmt.Errorf("geosocial: update: %w", err)
	}
	if len(pending) > 0 {
		miss := slices.Sorted(maps.Keys(pending))
		return nil, fmt.Errorf("geosocial: update: previous outcome log has no record for touched user %d", miss[0])
	}
	e.truths[0].SubtractCounts(stale.Counts())

	// Account the recomputed contributions: an existing user back into
	// its home shard, a brand-new user into the appended shard
	// introducing it.
	for i, r := range rs {
		if err := e.account(ds.Home(touched[i]), r); err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
	}
	res, err := e.finish()
	if err != nil {
		return nil, fmt.Errorf("geosocial: update: %w", err)
	}
	res.Format = trace.FormatBinary
	res.Generation = ss.Manifest.Generation
	if err := checkNewUsers(ss, res.Shards); err != nil {
		return nil, err
	}
	if res.Users != ss.Manifest.Users {
		return nil, fmt.Errorf("geosocial: update: %d users after update, manifest says %d",
			res.Users, ss.Manifest.Users)
	}
	return res, nil
}
