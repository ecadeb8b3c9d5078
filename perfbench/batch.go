package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"geosocial"
	"geosocial/internal/core"
	"geosocial/internal/trace"
)

// Batch workloads: one corpus, validated whole by geosocial.ValidateFileOpts.

const (
	batchUsers  = 340 // about 3300 user-days, 2.8 M GPS points
	baseShards  = 8
	deltaDays   = 24
	setupRounds = 3 // setup_s is the median of this many set-ups
	serialEvery = 3
)

// batchCorpus is a corpus written to disk by one set-up.
type batchCorpus struct {
	path      string // the path ValidateFileOpts is given
	logPath   string // outcome log of measured calls ("" = log off)
	streamMB  float64
	appendGen []time.Duration // per-generation OpenAppend+WriteUser+Close (shards-gen)
}

// batchWorkload is file-gz or shards-gen.
type batchWorkload struct {
	sharded bool
}

// write stores pop in dir with the repo's own writers: SaveFile to a
// single .bin.gz, or SaveShards to uncompressed base shards followed by
// one OpenAppend generation per day of the last deltaDays days.
func (w batchWorkload) write(pop *population, dir string) (*batchCorpus, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if !w.sharded {
		c := &batchCorpus{path: filepath.Join(dir, "perfbench.bin.gz"), logPath: filepath.Join(dir, "measured.gso")}
		return c, pop.ds.SaveFile(c.path)
	}
	end := nextMidnight(lastActivity(pop.ds.Users))
	cut := end - deltaDays*86400
	base := &trace.Dataset{Name: pop.ds.Name, POIs: pop.ds.POIs, Users: before(pop.ds.Users, cut)}
	manifest, err := base.SaveShards(dir, trace.ShardOptions{Shards: baseShards})
	if err != nil {
		return nil, err
	}
	c := &batchCorpus{path: manifest}
	for _, day := range dailyDeltas(pop.ds.Users, cut, deltaDays) {
		if len(day) == 0 {
			continue
		}
		t0 := time.Now()
		aw, err := trace.OpenAppend(manifest)
		if err != nil {
			return nil, err
		}
		for _, u := range day {
			if err := aw.WriteUser(u); err != nil {
				return nil, err
			}
		}
		if err := aw.Close(); err != nil {
			return nil, err
		}
		c.appendGen = append(c.appendGen, time.Since(t0))
	}
	return c, nil
}

// streamBytes is the size of the GSB1 stream(s) the frame fetcher
// reads: the inflated stream of a .gz file, the base shards of a set.
func (c *batchCorpus) streamBytes() (int64, error) {
	if filepath.Ext(c.path) == ".gz" {
		f, err := os.Open(c.path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		zr, err := gzip.NewReader(f)
		if err != nil {
			return 0, err
		}
		return io.Copy(io.Discard, zr)
	}
	ss, err := trace.OpenShardSet(c.path)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, info := range ss.Manifest.Shards {
		if !info.Delta {
			st, err := os.Stat(filepath.Join(ss.Dir, info.File))
			if err != nil {
				return 0, err
			}
			n += st.Size()
		}
	}
	return n, nil
}

// setup writes the corpus setupRounds times, each into a fresh
// directory, and keeps the last. setup_s is the median write time.
func (w batchWorkload) setup(pop *population, work string) (*batchCorpus, []float64, error) {
	var times []float64
	var c *batchCorpus
	for i := 0; i < setupRounds; i++ {
		dir := filepath.Join(work, fmt.Sprintf("corpus-%d", i))
		t0 := time.Now()
		var err error
		c, err = w.write(pop, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRounds-1 {
			os.RemoveAll(dir)
		}
	}
	n, err := c.streamBytes()
	if err != nil {
		return nil, nil, err
	}
	c.streamMB = float64(n) / 1e6
	return c, times, nil
}

// validate is one untraced call of the system under test. A workers-1
// call is the single-threaded baseline and runs with GOMAXPROCS 1: with a
// second P idle, the frame-fetch goroutine's hand-offs to the worker
// wake an idle thread per frame, which on a virtual machine adds a
// wake-up latency that varies with the host's load by tens of percent.
func (c *batchCorpus) validate(workers int) ([]byte, error) {
	if workers == 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	res, err := geosocial.ValidateFileOpts(c.path, geosocial.StreamOptions{Workers: workers, OutcomeLog: c.logPath})
	if err != nil {
		return nil, err
	}
	return res.Encode()
}

// reference is the expected output of every measured call, computed
// once after set-up: the serial engine's encoded result (and outcome
// log), cross-checked against an in-memory validation of the population
// so a storage-layout bug cannot hide in the reference itself.
type reference struct {
	result []byte
	log    []byte
}

func (c *batchCorpus) reference(pop *population) (*reference, error) {
	enc, err := c.validate(1)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	ref := &reference{result: enc}
	if c.logPath != "" {
		if ref.log, err = os.ReadFile(c.logPath); err != nil {
			return nil, err
		}
	}
	got, err := core.DecodeStreamResult(enc)
	if err != nil {
		return nil, err
	}
	// The binary codecs quantize coordinates, so the in-memory check runs
	// on the population as it reads back from a GSB1 stream.
	var buf bytes.Buffer
	if err := pop.ds.WriteBinary(&buf); err != nil {
		return nil, err
	}
	quantized, err := trace.ReadBinary(&buf)
	if err != nil {
		return nil, err
	}
	mem, err := geosocial.ValidateDatasetWorkers(quantized, 0)
	if err != nil {
		return nil, fmt.Errorf("reference: in-memory validation: %w", err)
	}
	if got.Users != len(pop.ds.Users) || got.Partition != mem.Partition {
		return nil, fmt.Errorf("reference: %s corpus validates to %d users %+v, the population to %d users %+v",
			c.path, got.Users, got.Partition, len(pop.ds.Users), mem.Partition)
	}
	for k, n := range mem.Breakdown() {
		if got.Taxonomy[k] != n {
			return nil, fmt.Errorf("reference: taxonomy %s: corpus %d, population %d", k, got.Taxonomy[k], n)
		}
	}
	return ref, nil
}

// check compares one call's output (and outcome log) to the reference.
func (c *batchCorpus) check(ck *checker, what string, enc []byte, err error, ref *reference) {
	if err != nil {
		ck.fail(what, err)
		return
	}
	ck.equal(what+" result", enc, ref.result)
	if c.logPath != "" {
		got, err := os.ReadFile(c.logPath)
		if err != nil {
			ck.fail(what+" outcome log", err)
			return
		}
		ck.equal(what+" outcome log", got, ref.log)
	}
}

// run is one --trace 0 run of a batch workload.
func (w batchWorkload) run(cfg runConfig) (*runOutcome, error) {
	pop, err := genPopulation(cfg.seed, batchUsers)
	if err != nil {
		return nil, err
	}
	corpus, setupTimes, err := w.setup(pop, cfg.work)
	if err != nil {
		return nil, err
	}
	ref, err := corpus.reference(pop)
	if err != nil {
		return nil, err
	}
	users := len(pop.ds.Users)
	popReport := populationReport(pop)
	pop = nil // the measured phase reads only the files
	out := &runOutcome{metrics: map[string]float64{}, report: map[string]any{"population": popReport}}

	nproc := runtime.GOMAXPROCS(0)
	var par, serial timing
	rss := startRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// users_per_s is bounded and users_per_s_w1 is not, so most of the
	// run goes to workers-nproc calls: one workers-1 call follows every
	// serialEvery of them.
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < 3*serialEvery || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		enc, err := corpus.validate(nproc)
		par.add(time.Since(t0))
		corpus.check(&out.checks, fmt.Sprintf("call %d (workers %d)", i, nproc), enc, err, ref)
		if i%serialEvery != serialEvery-1 {
			continue
		}
		t0 = time.Now()
		enc, err = corpus.validate(1)
		serial.add(time.Since(t0))
		corpus.check(&out.checks, fmt.Sprintf("call %d (workers 1)", i), enc, err, ref)
	}
	runtime.ReadMemStats(&m1)
	peak, peakMax := rss.finish()

	calls := len(par.ms) + len(serial.ms)
	allocKB := float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(calls*users)
	ups := float64(users) / (median(par.ms) / 1000)
	upsW1 := float64(users) / (median(serial.ms) / 1000)
	out.metrics["setup_s"] = median(setupTimes)
	out.metrics["users_per_s"] = ups
	out.metrics["alloc_kb_per_user"] = allocKB
	out.metrics["peak_rss_mb"] = peak
	out.report["metrics"] = map[string]any{
		"setup_s":           map[string]any{"value": median(setupTimes), "n": len(setupTimes), "unit": "s"},
		"users_per_s":       map[string]any{"value": ups, "n": len(par.ms), "workers": nproc, "unit": "users/s"},
		"users_per_s_w1":    map[string]any{"value": upsW1, "n": len(serial.ms), "unit": "users/s"},
		"alloc_kb_per_user": map[string]any{"value": allocKB, "n": calls, "unit": "KiB"},
		"peak_rss_mb":       map[string]any{"value": peak, "max": peakMax, "windows_ms": rssWindow.Milliseconds(), "unit": "MiB"},
		"failed_share":      map[string]any{"value": out.checks.failedShare(), "n": out.checks.attempted, "unit": "ratio"},
	}
	out.report["calls_ms"] = map[string]any{"workers_n": par.summary(), "workers_1": serial.summary()}
	out.report["stream_mb"] = corpus.streamMB
	return out, nil
}

// traced is one --trace 1 run: untraced calls at workers 1 and nproc
// around a traced serial replay, repeated while time remains; every
// per-layer figure is the median over the repetitions.
func (w batchWorkload) traced(cfg runConfig) (*runOutcome, error) {
	pop, err := genPopulation(cfg.seed, batchUsers)
	if err != nil {
		return nil, err
	}
	corpus, _, err := w.setup(pop, cfg.work)
	if err != nil {
		return nil, err
	}
	ref, err := corpus.reference(pop)
	if err != nil {
		return nil, err
	}
	users := len(pop.ds.Users)
	points := gpsPoints(pop.ds.Users)
	pop = nil
	out := &runOutcome{metrics: map[string]float64{}, report: map[string]any{}}
	nproc := runtime.GOMAXPROCS(0)
	replayLog := ""
	if corpus.logPath != "" {
		replayLog = filepath.Join(filepath.Dir(corpus.logPath), "replay.gso")
	}
	series := map[string][]float64{}
	var last *tracer
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < 1 || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		enc, err := corpus.validate(1)
		wallW1 := time.Since(t0)
		corpus.check(&out.checks, fmt.Sprintf("untraced call %d (workers 1)", i), enc, err, ref)
		t0 = time.Now()
		enc, err = corpus.validate(nproc)
		wallPar := time.Since(t0)
		corpus.check(&out.checks, fmt.Sprintf("untraced call %d (workers %d)", i, nproc), enc, err, ref)

		t := newTracer()
		renc, wallTraced, err := w.replay(t, corpus, replayLog)
		if err != nil {
			out.checks.fail("traced replay", err)
			break
		}
		// Same work: the replay's result and log equal the untraced run's.
		out.checks.equal(fmt.Sprintf("traced replay %d result", i), renc, ref.result)
		if replayLog != "" {
			got, err := os.ReadFile(replayLog)
			if err != nil {
				out.checks.fail("traced replay log", err)
			} else {
				out.checks.equal(fmt.Sprintf("traced replay %d outcome log", i), got, ref.log)
			}
		}
		opened := t.items("trace.open")
		add := func(k string, v float64) { series[k] = append(series[k], v) }
		add("trace.open_ms", t.ms("trace.open"))
		add("trace.open_ms_per_shard", t.ms("trace.open")/float64(max(opened, 1)))
		add("trace.fetch_ms", t.ms("trace.fetch"))
		add("trace.fetch_mb_per_s", perSecond(corpus.streamMB, t.ms("trace.fetch")))
		add("trace.decode_us_per_user", t.usPer("trace.decode", users))
		add("trace.merge_sets_ms", t.ms("trace.merge_sets"))
		add("trace.fold_us_per_user", t.usPer("trace.fold", users))
		add("poi.newdb_ms", t.ms("poi.newdb"))
		add("visits.detect_us_per_user", t.usPer("visits.detect", users))
		add("visits.gps_points_per_s", perSecond(float64(points), t.ms("visits.detect")))
		add("core.match_us_per_user", t.usPer("core.match", users))
		add("core.encode_us", t.ms("core.encode")*1000)
		add("classify.us_per_user", t.usPer("classify", users))
		add("outcome.record_us_per_user", t.usPer("outcome.record", users))
		add("outcome.write_ms", t.ms("outcome.write"))
		add("par.speedup", wallW1.Seconds()/wallPar.Seconds())
		add("par.busy_share", t.total().Seconds()/(float64(nproc)*wallPar.Seconds()))
		add("unattributed_share", (wallTraced-t.total()).Seconds()/wallTraced.Seconds())
		add("tracing_overhead_share", (wallTraced-wallW1).Seconds()/wallW1.Seconds())
		last = t
	}
	for _, s := range perLayer {
		out.metrics[s.Name] = 0 // serve-append layers: a batch validation does not call them
	}
	for k, xs := range series {
		out.metrics[k] = median(xs)
	}
	appendMS := 0.0
	if len(corpus.appendGen) > 0 {
		var gens timing
		for _, d := range corpus.appendGen {
			gens.add(d)
		}
		appendMS = median(gens.ms)
	}
	out.metrics["trace.append_ms"] = appendMS
	logMB := 0.0
	if replayLog != "" {
		if st, err := os.Stat(replayLog); err == nil {
			logMB = float64(st.Size()) / 1e6
		}
	}
	out.metrics["outcome.log_mb"] = logMB
	out.report["repetitions"] = len(series["par.speedup"])
	if last != nil {
		out.report["spans"] = last.table()
	}
	return out, nil
}

// perSecond is amount per second of ms milliseconds (0 for no time).
func perSecond(amount, ms float64) float64 {
	if ms == 0 {
		return 0
	}
	return amount / (ms / 1000)
}

// replay runs the traced serial replay with GOMAXPROCS 1, as the
// untraced workers-1 call it is compared with runs.
func (w batchWorkload) replay(t *tracer, corpus *batchCorpus, logPath string) ([]byte, time.Duration, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t0 := time.Now()
	var enc []byte
	var err error
	if w.sharded {
		enc, err = replayShardSet(t, corpus.path)
	} else {
		enc, err = replayFile(t, corpus.path, logPath)
	}
	return enc, time.Since(t0), err
}

// populationReport describes the generated population: its size and how
// heavy its tail is.
func populationReport(pop *population) map[string]any {
	days := 0.0
	for _, u := range pop.ds.Users {
		days += u.Days
	}
	return map[string]any{
		"users":                len(pop.ds.Users),
		"user_days":            days,
		"gps_points":           gpsPoints(pop.ds.Users),
		"top_decile_gps_share": topDecileShare(pop.ds.Users),
	}
}
