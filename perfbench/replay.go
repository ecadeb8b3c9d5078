package main

import (
	"fmt"
	"io"

	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/outcome"
	"geosocial/internal/poi"
	"geosocial/internal/trace"
	"geosocial/internal/visits"
)

// The traced replay: the work of one ValidateFileOpts call, done
// serially by calling each layer's public functions from here, with a
// span around every call. Its StreamResult (and outcome log) must equal
// the untraced engine's byte for byte; that is the same-work check.

// userPipe runs the per-user stages: segment, match, classify and, when
// logging, the outcome record and its write.
type userPipe struct {
	t      *tracer
	db     *poi.DB
	params core.Params
	vcfg   visits.Config
	cls    classify.Params
	logw   *outcome.Writer
}

func newUserPipe(t *tracer, db *poi.DB, logw *outcome.Writer) *userPipe {
	return &userPipe{t: t, db: db, params: core.DefaultParams(), vcfg: visits.DefaultConfig(),
		cls: classify.DefaultParams(), logw: logw}
}

func (p *userPipe) run(u *trace.User) (core.UserOutcome, *classify.Classification, error) {
	t0 := p.t.start()
	vs, err := visits.Detect(u.GPS, p.vcfg, p.db)
	p.t.end("visits.detect", t0, len(u.GPS))
	if err != nil {
		return core.UserOutcome{}, nil, fmt.Errorf("user %d: %w", u.ID, err)
	}
	t0 = p.t.start()
	m, err := core.MatchUser(u.Checkins, vs, p.params)
	p.t.end("core.match", t0, 1)
	if err != nil {
		return core.UserOutcome{}, nil, fmt.Errorf("user %d: %w", u.ID, err)
	}
	o := core.UserOutcome{User: u, Visits: vs, Match: m}
	t0 = p.t.start()
	cl, err := classify.ClassifyUser(o, p.cls)
	p.t.end("classify", t0, 1)
	if err != nil {
		return core.UserOutcome{}, nil, fmt.Errorf("user %d: %w", u.ID, err)
	}
	if p.logw != nil {
		t0 = p.t.start()
		rec, err := outcome.NewRecord(o, cl)
		p.t.end("outcome.record", t0, 1)
		if err != nil {
			return core.UserOutcome{}, nil, err
		}
		t0 = p.t.start()
		err = p.logw.Write(rec)
		p.t.end("outcome.write", t0, 1)
		if err != nil {
			return core.UserOutcome{}, nil, err
		}
	}
	return o, cl, nil
}

// aggregate sums per-user outcomes into a StreamResult the way the
// facade does: partition, taxonomy, ground-truth score and, for shard
// sets, per-shard statistics.
type aggregate struct {
	res   *core.StreamResult
	stats []core.ShardStat
	truth core.TruthAccum
	seen  map[int]bool
}

func newAggregate(name string, shards []string) *aggregate {
	a := &aggregate{
		res:  &core.StreamResult{Name: name, Taxonomy: make(map[string]int, classify.NumKinds)},
		seen: make(map[int]bool),
	}
	for _, s := range shards {
		a.stats = append(a.stats, core.ShardStat{Path: s})
	}
	return a
}

func (a *aggregate) add(shard int, o core.UserOutcome, cl *classify.Classification) error {
	id := o.User.ID
	if a.seen[id] {
		return fmt.Errorf("duplicate user ID %d", id)
	}
	a.seen[id] = true
	a.res.Users++
	a.res.Partition.Add(o)
	for _, k := range cl.Kinds {
		a.res.Taxonomy[k.String()]++
	}
	a.truth.Add(o)
	if a.stats != nil {
		a.stats[shard].Users++
		a.stats[shard].Partition.Add(o)
	}
	return nil
}

func (a *aggregate) finish() (*core.StreamResult, error) {
	if a.truth.Labeled() > 0 {
		sc, err := a.truth.Score()
		if err != nil {
			return nil, err
		}
		a.res.Truth = &sc
	}
	a.res.Shards = a.stats
	return a.res, nil
}

// encode is StreamResult.Encode under a span.
func encode(t *tracer, res *core.StreamResult) ([]byte, error) {
	t0 := t.start()
	b, err := res.Encode()
	t.end("core.encode", t0, 1)
	return b, err
}

// replayFile replays ValidateFileOpts over one dataset file, writing the
// outcome log to logPath when it is not empty.
func replayFile(t *tracer, path, logPath string) ([]byte, error) {
	t0 := t.start()
	stream, err := trace.OpenStream(path)
	t.end("trace.open", t0, 1)
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	t0 = t.start()
	db, err := stream.DB()
	t.end("poi.newdb", t0, 1)
	if err != nil {
		return nil, err
	}
	var logw *outcome.Writer
	if logPath != "" {
		t0 = t.start()
		logw, err = outcome.Create(logPath, stream.Name)
		t.end("outcome.write", t0, 0)
		if err != nil {
			return nil, err
		}
		defer logw.Discard()
	}
	pipe := newUserPipe(t, db, logw)
	agg := newAggregate(stream.Name, nil)
	src := stream.Frames()
	recycler, _ := src.(trace.UserRecycler)
	for {
		t0 = t.start()
		fr, err := src.NextFrame()
		t.end("trace.fetch", t0, 1)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		t0 = t.start()
		u, err := src.DecodeFrame(fr)
		t.end("trace.decode", t0, 1)
		if err != nil {
			return nil, err
		}
		o, cl, err := pipe.run(u)
		if err != nil {
			return nil, err
		}
		if err := agg.add(0, o, cl); err != nil {
			return nil, err
		}
		if recycler != nil {
			recycler.RecycleUser(u)
		}
	}
	if logw != nil {
		t0 = t.start()
		err = logw.Close()
		t.end("outcome.write", t0, 0)
		if err != nil {
			return nil, err
		}
	}
	res, err := agg.finish()
	if err != nil {
		return nil, err
	}
	res.Format = stream.Format
	res.Shards = nil
	return encode(t, res)
}

// replayShardSet replays ValidateFileOpts over a (generational) shard
// set without an outcome log: delta shards are merged up front, base
// shards are streamed with their users' deltas folded in, and users that
// exist only in delta shards are folded and validated last, counted
// against the delta shard that introduced them.
func replayShardSet(t *tracer, manifest string) ([]byte, error) {
	t0 := t.start()
	ss, err := trace.OpenShardSet(manifest)
	t.end("trace.open", t0, 0)
	if err != nil {
		return nil, err
	}
	var ds *trace.DeltaSet
	if ss.Manifest.Generation > 0 {
		t0 = t.start()
		ds, err = trace.MergeSets(ss)
		t.end("trace.merge_sets", t0, 1)
		if err != nil {
			return nil, err
		}
	}
	labels := make([]string, len(ss.Manifest.Shards))
	for i, info := range ss.Manifest.Shards {
		labels[i] = info.File
	}
	agg := newAggregate(ss.Manifest.Name, labels)
	var pipe *userPipe
	for i, info := range ss.Manifest.Shards {
		if info.Delta {
			continue
		}
		if err := replayShard(t, ss, i, ds, &pipe, agg); err != nil {
			return nil, err
		}
	}
	if ds != nil {
		for _, id := range ds.IDs() {
			if agg.seen[id] {
				continue
			}
			t0 = t.start()
			u, err := ds.FoldNew(id)
			t.end("trace.fold", t0, 1)
			if err != nil {
				return nil, err
			}
			o, cl, err := pipe.run(u)
			if err != nil {
				return nil, err
			}
			if err := agg.add(ds.Home(id), o, cl); err != nil {
				return nil, err
			}
		}
	}
	res, err := agg.finish()
	if err != nil {
		return nil, err
	}
	res.Format = trace.FormatBinary
	res.Generation = ss.Manifest.Generation
	return encode(t, res)
}

// replayShard streams base shard i; the first shard opened builds the
// POI database the whole set shares.
func replayShard(t *tracer, ss *trace.ShardSet, i int, ds *trace.DeltaSet, pipe **userPipe, agg *aggregate) error {
	t0 := t.start()
	r, err := ss.OpenShard(i)
	t.end("trace.open", t0, 1)
	if err != nil {
		return err
	}
	defer r.Close()
	if *pipe == nil {
		t0 = t.start()
		db, err := poi.NewDB(r.POIs())
		t.end("poi.newdb", t0, 1)
		if err != nil {
			return err
		}
		*pipe = newUserPipe(t, db, nil)
	}
	for {
		t0 = t.start()
		fr, err := r.NextFrame()
		t.end("trace.fetch", t0, 1)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		t0 = t.start()
		u, err := r.DecodeFrame(fr)
		t.end("trace.decode", t0, 1)
		if err != nil {
			return err
		}
		if ds != nil {
			t0 = t.start()
			u, err = ds.Fold(u)
			t.end("trace.fold", t0, 1)
			if err != nil {
				return err
			}
		}
		o, cl, err := (*pipe).run(u)
		if err != nil {
			return err
		}
		if err := agg.add(i, o, cl); err != nil {
			return err
		}
	}
}
