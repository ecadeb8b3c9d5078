package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"geosocial"
	"geosocial/internal/core"
	"geosocial/internal/poi"
	"geosocial/internal/serve"
	"geosocial/internal/trace"
)

// The serve-append workload: an in-process server with cmd/geoserve's
// defaults on a loopback listener, and serveClients closed-loop clients
// that each own a small shard set. A client's cycle uploads a fresh small
// .bin.gz, appends the next daily delta to its set and reads the grown
// dataset's summary analysis. After roundCycles days the client starts a
// new round on a fresh copy of its base set under a new dataset name, so
// every round repeats the same work (the name keeps the checksums, and
// so the cache keys, new) and the corpus never outgrows the round.

const (
	serveUsers   = 340 // population the clients' sets are drawn from
	serveClients = 2   // nproc on the reference machine
	roundCycles  = 12  // daily deltas per round
	uploadUsers  = 8
	baseLong     = 6
	baseShort    = 16
	clientShards = 2
	// A server starts in tens of milliseconds, so its setup_s is the
	// median of more starts than a batch corpus write.
	serveSetupRounds = 11
)

// clientFixture is one client's data: its base users, the daily deltas
// after the base and the users of its uploads.
type clientFixture struct {
	idx    int
	pois   []poi.POI
	users  []*trace.User // every user of the set, whole
	cut    int64         // start of the first delta day
	base   []*trace.User
	deltas [][]*trace.User
	upload []*trace.User
}

// serveFixtures builds each client's set from the population with the
// same shape for every seed, so run-to-run spread measures the server,
// not the draw: a base of baseLong 8-day and baseShort 2-day users, one
// 20-day "live" user whose last roundCycles days are the daily deltas,
// and an upload of uploadUsers 2-day users. Clients take alternate
// users. Base users are moved back by whole weeks (weekday patterns
// intact) so they end before the first delta day.
func serveFixtures(pop *population) ([]*clientFixture, error) {
	byDays := func(k int, days float64) []*trace.User {
		var us []*trace.User
		for i, u := range pop.ds.Users {
			if pop.cohort[i] == k && u.Days == days {
				us = append(us, u)
			}
		}
		return us
	}
	live, long, short := byDays(2, 20), byDays(3, 8), byDays(4, 2)
	if len(live) < serveClients || len(long) < serveClients*baseLong ||
		len(short) < serveClients*(baseShort+uploadUsers) {
		return nil, fmt.Errorf("serve: population too small for %d clients (%d live, %d long, %d short users)",
			serveClients, len(live), len(long), len(short))
	}
	fx := make([]*clientFixture, serveClients)
	for c := range fx {
		f := &clientFixture{idx: c, pois: pop.ds.POIs}
		anchor := live[c]
		f.cut = nextMidnight(lastActivity([]*trace.User{anchor})) - roundCycles*86400
		pick := func(us []*trace.User, from, n int) []*trace.User {
			var out []*trace.User
			for i := from*serveClients + c; len(out) < n; i += serveClients {
				out = append(out, us[i])
			}
			return out
		}
		for _, u := range append(pick(long, 0, baseLong), pick(short, 0, baseShort)...) {
			f.users = append(f.users, endBefore(u, f.cut))
		}
		f.users = append(f.users, anchor)
		f.upload = pick(short, baseShort, uploadUsers)
		f.base = before(f.users, f.cut)
		f.deltas = dailyDeltas(f.users, f.cut, roundCycles)
		fx[c] = f
	}
	return fx, nil
}

// endBefore returns u moved back by whole weeks until its last activity
// is before t.
func endBefore(u *trace.User, t int64) *trace.User {
	const week = 7 * 86400
	end := lastActivity([]*trace.User{u})
	if end < t {
		return u
	}
	shift := ((end-t)/week + 1) * week
	out := &trace.User{ID: u.ID, Profile: u.Profile, Days: u.Days,
		GPS: make(trace.GPSTrace, len(u.GPS)), Checkins: make(trace.CheckinTrace, len(u.Checkins))}
	copy(out.GPS, u.GPS)
	copy(out.Checkins, u.Checkins)
	for i := range out.GPS {
		out.GPS[i].T -= shift
	}
	for i := range out.Checkins {
		out.Checkins[i].T -= shift
	}
	return out
}

// setName names client c's dataset in round r.
func setName(c, r int) string { return fmt.Sprintf("c%d-r%d", c, r) }

// writeBase writes the client's base set for round r under dir.
func (f *clientFixture) writeBase(dir string, r int) (string, error) {
	d := filepath.Join(dir, setName(f.idx, r))
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", err
	}
	ds := &trace.Dataset{Name: setName(f.idx, r), POIs: f.pois, Users: f.base}
	return ds.SaveShards(d, trace.ShardOptions{Shards: clientShards})
}

// encodeStream encodes users as a GSB1 stream named name, gzip-compressed
// when gz is set: the body of an upload (gz) or of an append (plain).
func encodeStream(name string, pois []poi.POI, users []*trace.User, gz bool) ([]byte, error) {
	var buf bytes.Buffer
	var w io.Writer = &buf
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(&buf)
		w = zw
	}
	sw, err := trace.NewStreamWriter(w, name, pois)
	if err != nil {
		return nil, err
	}
	for _, u := range users {
		if err := sw.WriteUser(u); err != nil {
			return nil, err
		}
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// serveRefs are the expected outputs, from cold validations of each
// corpus state as one file: per client, the partition of its upload and
// of its set at each generation 0..roundCycles, and the summary analysis
// of each state with the dataset name blanked.
type serveRefs struct {
	upload    [][]byte
	partition [][][]byte
	summary   [][][]byte
}

func computeRefs(fx []*clientFixture, dir string) (*serveRefs, error) {
	refs := &serveRefs{}
	cold := func(users []*trace.User, pois []poi.POI, tag string) ([]byte, []byte, error) {
		path := filepath.Join(dir, tag+".bin")
		ds := &trace.Dataset{Name: "reference", POIs: pois, Users: users}
		if err := ds.SaveFile(path); err != nil {
			return nil, nil, err
		}
		log := filepath.Join(dir, tag+".gso")
		res, err := geosocial.ValidateFileOpts(path, geosocial.StreamOptions{OutcomeLog: log})
		if err != nil {
			return nil, nil, err
		}
		part, err := indented(res.Partition)
		if err != nil {
			return nil, nil, err
		}
		a, err := geosocial.AnalyzeOutcomes(log, geosocial.AnalysisSummary)
		if err != nil {
			return nil, nil, err
		}
		sum, err := normalizedSummary(a)
		return part, sum, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, f := range fx {
		up, _, err := cold(f.upload, f.pois, fmt.Sprintf("c%d-upload", f.idx))
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		refs.upload = append(refs.upload, up)
		var parts, sums [][]byte
		for g := 0; g <= roundCycles; g++ {
			p, s, err := cold(before(f.users, f.cut+int64(g)*86400), f.pois, fmt.Sprintf("c%d-g%d", f.idx, g))
			if err != nil {
				return nil, fmt.Errorf("reference: %w", err)
			}
			parts, sums = append(parts, p), append(sums, s)
		}
		refs.partition = append(refs.partition, parts)
		refs.summary = append(refs.summary, sums)
	}
	return refs, nil
}

// indented is the service's presentation encoding of v.
func indented(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := core.WriteIndentedJSON(&buf, v)
	return buf.Bytes(), err
}

// normalizedSummary re-encodes a summary analysis without the dataset
// name, which differs between a round's set and its reference file.
func normalizedSummary(a *geosocial.OutcomeAnalysis) ([]byte, error) {
	b := *a
	b.Dataset = ""
	if b.Summary != nil {
		s := *b.Summary
		s.Name = ""
		b.Summary = &s
	}
	return indented(&b)
}

// serveEnv is one running server with its listener and client.
type serveEnv struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string // the listener's base URL
	baseDir string // where the clients' base sets are written
	client  *http.Client
	baseIDs []string
}

// startServer starts a server configured as cmd/geoserve's defaults
// (outcomes on, disk cache on, max-jobs 2, cache 64, poll 2s, workers =
// GOMAXPROCS) on a loopback port, then writes each client's round-0
// base set and registers it with Server.Add, waiting until it is done.
func startServer(fx []*clientFixture, dir string) (*serveEnv, error) {
	srv, err := geosocial.NewServer(geosocial.ServerOptions{
		SpoolDir:          filepath.Join(dir, "spool"),
		MaxJobs:           2,
		CacheCapacity:     64,
		PollInterval:      2 * time.Second,
		Outcomes:          true,
		MaxCheckpointRuns: 8,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serveEnv{
		srv:     srv,
		hs:      &http.Server{Handler: srv},
		served:  make(chan error, 1),
		url:     "http://" + ln.Addr().String(),
		baseDir: filepath.Join(dir, "bases"),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients},
			Timeout:   2 * time.Minute,
		},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	for _, f := range fx {
		id, err := e.register(f, 0)
		if err != nil {
			e.close()
			return nil, err
		}
		e.baseIDs = append(e.baseIDs, id)
	}
	return e, nil
}

// register writes client f's base set for round r, adds it to the
// server and waits for its validation.
func (e *serveEnv) register(f *clientFixture, r int) (string, error) {
	manifest, err := f.writeBase(e.baseDir, r)
	if err != nil {
		return "", err
	}
	info, err := e.srv.Add(manifest)
	if err != nil {
		return "", err
	}
	var done serve.JobInfo
	if err := e.getJSON("/v1/datasets/"+info.ID+"?wait=1", &done); err != nil {
		return "", err
	}
	if done.Status != serve.StatusDone {
		return "", fmt.Errorf("register %s: status %s %s", manifest, done.Status, done.Error)
	}
	return info.ID, nil
}

// close stops the server the way cmd/geoserve does: the service first
// (releasing long-polls), then the HTTP server, and waits for both.
func (e *serveEnv) close() {
	closed := make(chan struct{})
	go func() { e.srv.Close(); close(closed) }()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-closed
	<-e.served
	e.client.CloseIdleConnections()
}

func (e *serveEnv) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.url+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

func (e *serveEnv) getJSON(path string, v any) error {
	data, err := e.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// postJob posts body and returns the job state, which must be done.
func (e *serveEnv) postJob(path string, body []byte) (serve.JobInfo, error) {
	var info serve.JobInfo
	data, err := e.do(http.MethodPost, path, body)
	if err != nil {
		return info, err
	}
	if err := json.Unmarshal(data, &info); err != nil {
		return info, err
	}
	if info.Status != serve.StatusDone {
		return info, fmt.Errorf("POST %s: status %s %s", path, info.Status, info.Error)
	}
	return info, nil
}

// opRecord is one served operation, kept for the post-run check.
type opRecord struct {
	kind   string // "upload", "append", "register" or "analysis"
	client int
	gen    int
	id     string
	body   []byte // analysis document
}

// clientRun is what one closed-loop client measured.
type clientRun struct {
	upload, append, analysis, cycle, register timing
	users                                     int
	ops                                       []opRecord
	errs                                      []error
}

// loop runs client f's cycles until deadline, finishing the cycle in
// flight.
func (e *serveEnv) loop(f *clientFixture, deadline time.Time) *clientRun {
	cr := &clientRun{}
	id := e.baseIDs[f.idx]
	uploads := 0
	for r := 0; ; r++ {
		if r > 0 {
			t0 := time.Now()
			nid, err := e.register(f, r)
			cr.register.add(time.Since(t0))
			if err != nil {
				cr.errs = append(cr.errs, err)
				return cr
			}
			cr.ops = append(cr.ops, opRecord{kind: "register", client: f.idx, id: nid})
			id = nid
		}
		for g := 1; g <= roundCycles; g++ {
			if !time.Now().Before(deadline) {
				return cr
			}
			up, err := encodeStream(fmt.Sprintf("up-c%d-%d", f.idx, uploads), f.pois, f.upload, true)
			if err != nil {
				cr.errs = append(cr.errs, err)
				return cr
			}
			uploads++
			delta, err := encodeStream(setName(f.idx, r), f.pois, f.deltas[g-1], false)
			if err != nil {
				cr.errs = append(cr.errs, err)
				return cr
			}
			c0 := time.Now()
			info, err := e.postJob("/v1/datasets?wait=1", up)
			cr.upload.add(time.Since(c0))
			if err != nil {
				cr.errs = append(cr.errs, err)
				return cr
			}
			cr.ops = append(cr.ops, opRecord{kind: "upload", client: f.idx, id: info.ID})
			t0 := time.Now()
			grown, err := e.postJob("/v1/datasets/"+id+"/append?wait=1", delta)
			cr.append.add(time.Since(t0))
			if err != nil {
				cr.errs = append(cr.errs, err)
				return cr
			}
			cr.ops = append(cr.ops, opRecord{kind: "append", client: f.idx, gen: g, id: grown.ID})
			t0 = time.Now()
			doc, err := e.do(http.MethodGet, "/v1/datasets/"+grown.ID+"/analysis/summary", nil)
			cr.analysis.add(time.Since(t0))
			if err != nil {
				cr.errs = append(cr.errs, err)
				return cr
			}
			cr.cycle.add(time.Since(c0))
			cr.ops = append(cr.ops, opRecord{kind: "analysis", client: f.idx, gen: g, id: grown.ID, body: doc})
			cr.users += len(f.upload) + len(f.deltas[g-1])
			id = grown.ID
		}
	}
}

// closedLoop runs every client until deadline and merges their records.
func (e *serveEnv) closedLoop(fx []*clientFixture, deadline time.Time) (*clientRun, time.Duration) {
	runs := make([]*clientRun, len(fx))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, f := range fx {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = e.loop(f, deadline)
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	all := &clientRun{}
	for _, r := range runs {
		all.upload.ms = append(all.upload.ms, r.upload.ms...)
		all.append.ms = append(all.append.ms, r.append.ms...)
		all.analysis.ms = append(all.analysis.ms, r.analysis.ms...)
		all.cycle.ms = append(all.cycle.ms, r.cycle.ms...)
		all.register.ms = append(all.register.ms, r.register.ms...)
		all.users += r.users
		all.ops = append(all.ops, r.ops...)
		all.errs = append(all.errs, r.errs...)
	}
	return all, wall
}

// check fetches every served operation's result and compares it with
// the cold reference of the same corpus state.
func (e *serveEnv) check(ck *checker, cr *clientRun, refs *serveRefs) {
	for _, err := range cr.errs {
		ck.fail("serve operation", err)
	}
	for _, op := range cr.ops {
		what := fmt.Sprintf("client %d %s gen %d", op.client, op.kind, op.gen)
		switch op.kind {
		case "analysis":
			var a geosocial.OutcomeAnalysis
			if err := json.Unmarshal(op.body, &a); err != nil {
				ck.fail(what, err)
				continue
			}
			got, err := normalizedSummary(&a)
			if err != nil {
				ck.fail(what, err)
				continue
			}
			ck.equal(what, got, refs.summary[op.client][op.gen])
		default:
			got, err := e.do(http.MethodGet, "/v1/datasets/"+op.id+"/partition", nil)
			if err != nil {
				ck.fail(what, err)
				continue
			}
			want := refs.partition[op.client][op.gen]
			if op.kind == "upload" {
				want = refs.upload[op.client]
			}
			ck.equal(what+" partition", got, want)
		}
	}
}

// scrape reads counters from /metrics by family name.
func (e *serveEnv) scrape(names ...string) (map[string]float64, error) {
	data, err := e.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		for _, n := range names {
			if fields[0] == n {
				v, err := strconv.ParseFloat(fields[1], 64)
				if err != nil {
					return nil, err
				}
				out[n] = v
			}
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", n)
		}
	}
	return out, nil
}

// serveWorkload is serve-append.
type serveWorkload struct{}

// prepare generates the population, the client fixtures and the
// reference outputs (fixture time, outside every metric).
func (serveWorkload) prepare(cfg runConfig) ([]*clientFixture, *serveRefs, map[string]any, error) {
	pop, err := genPopulation(cfg.seed, serveUsers)
	if err != nil {
		return nil, nil, nil, err
	}
	fx, err := serveFixtures(pop)
	if err != nil {
		return nil, nil, nil, err
	}
	refs, err := computeRefs(fx, filepath.Join(cfg.work, "refs"))
	if err != nil {
		return nil, nil, nil, err
	}
	rep := map[string]any{}
	for _, f := range fx {
		deltaUsers := 0
		for _, d := range f.deltas {
			deltaUsers += len(d)
		}
		rep[fmt.Sprintf("client_%d", f.idx)] = map[string]any{
			"base_users": len(f.base), "delta_users": deltaUsers, "upload_users": len(f.upload),
			"gps_points": gpsPoints(f.users),
		}
	}
	return fx, refs, rep, nil
}

// setupServer starts the server serveSetupRounds times, each over a fresh
// directory, and keeps the last; setup_s is the median start time.
func setupServer(fx []*clientFixture, work string) (*serveEnv, []float64, error) {
	var times []float64
	var env *serveEnv
	for i := 0; i < serveSetupRounds; i++ {
		dir := filepath.Join(work, fmt.Sprintf("server-%d", i))
		t0 := time.Now()
		e, err := startServer(fx, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < serveSetupRounds-1 {
			e.close()
			os.RemoveAll(dir)
			continue
		}
		env = e
	}
	return env, times, nil
}

func (w serveWorkload) run(cfg runConfig) (*runOutcome, error) {
	fx, refs, fxReport, err := w.prepare(cfg)
	if err != nil {
		return nil, err
	}
	env, setupTimes, err := setupServer(fx, cfg.work)
	if err != nil {
		return nil, err
	}
	defer env.close()
	out := &runOutcome{metrics: map[string]float64{}, report: map[string]any{"fixtures": fxReport}}

	rss := startRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cr, wall := env.closedLoop(fx, time.Now().Add(cfg.seconds))
	runtime.ReadMemStats(&m1)
	peak, peakMax := rss.finish()
	env.check(&out.checks, cr, refs)

	cycles := len(cr.cycle.ms)
	if cycles == 0 || cr.users == 0 {
		return nil, fmt.Errorf("no cycle completed: %v", errors.Join(cr.errs...))
	}
	ups := float64(cr.users) / wall.Seconds()
	allocKB := float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(cr.users)
	out.metrics["setup_s"] = median(setupTimes)
	out.metrics["users_per_s"] = ups
	out.metrics["alloc_kb_per_user"] = allocKB
	out.metrics["peak_rss_mb"] = peak
	out.report["metrics"] = map[string]any{
		"setup_s":           map[string]any{"value": median(setupTimes), "n": len(setupTimes), "unit": "s"},
		"users_per_s":       map[string]any{"value": ups, "users": cr.users, "unit": "users/s"},
		"alloc_kb_per_user": map[string]any{"value": allocKB, "unit": "KiB"},
		"peak_rss_mb":       map[string]any{"value": peak, "max": peakMax, "windows_ms": rssWindow.Milliseconds(), "unit": "MiB"},
		"upload_ms":         cr.upload.summary(),
		"append_ms":         cr.append.summary(),
		"analysis_ms":       cr.analysis.summary(),
		"cycle_ms":          cr.cycle.summary(),
		"register_ms":       cr.register.summary(),
		"cycles_per_s":      map[string]any{"value": float64(cycles) / wall.Seconds(), "n": cycles, "unit": "1/s"},
		"failed_share":      map[string]any{"value": out.checks.failedShare(), "n": out.checks.attempted, "unit": "ratio"},
	}
	return out, nil
}

// traced runs the HTTP closed loop for half the time (round trips and a
// /metrics scrape), then alternates untraced and traced direct replays
// of client 0's round, calling the facade, trace and serve functions the
// server's request handlers call.
func (w serveWorkload) traced(cfg runConfig) (*runOutcome, error) {
	fx, refs, fxReport, err := w.prepare(cfg)
	if err != nil {
		return nil, err
	}
	env, _, err := setupServer(fx, cfg.work)
	if err != nil {
		return nil, err
	}
	out := &runOutcome{metrics: map[string]float64{}, report: map[string]any{"fixtures": fxReport}}
	cr, _ := env.closedLoop(fx, time.Now().Add(cfg.seconds/2))
	env.check(&out.checks, cr, refs)
	counters, err := env.scrape("geoserve_incremental_updates_total", "geoserve_cache_hits_total", "geoserve_cache_misses_total")
	env.close()
	if err != nil {
		return nil, err
	}
	appends := len(cr.append.ms)
	if appends == 0 {
		return nil, fmt.Errorf("no append completed: %v", errors.Join(cr.errs...))
	}
	lookups := counters["geoserve_cache_hits_total"] + counters["geoserve_cache_misses_total"]

	var untraced, tracedWall, unattributed []float64
	var layerSums map[string]*timing
	var last *tracer
	deadline := time.Now().Add(cfg.seconds / 2)
	for i := 0; i < 1 || time.Now().Before(deadline); i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("replay-%d", i))
		wall, _, err := replayRound(nil, fx[0], refs, dir, &out.checks)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, wall.Seconds())
		t := newTracer()
		wall, sums, err := replayRound(t, fx[0], refs, dir+"t", &out.checks)
		if err != nil {
			return nil, err
		}
		tracedWall = append(tracedWall, wall.Seconds())
		unattributed = append(unattributed, (wall-t.total()).Seconds()/wall.Seconds())
		layerSums, last = sums, t
		os.RemoveAll(dir)
		os.RemoveAll(dir + "t")
	}
	perCall := func(name string) float64 { return last.ms(name) / float64(max(last.calls(name), 1)) }
	overhead := 0.0
	for op, rt := range map[string]*timing{"upload": &cr.upload, "append": &cr.append, "analysis": &cr.analysis} {
		overhead += (median(rt.ms) - median(layerSums[op].ms)) / 3
	}
	for _, s := range perLayer {
		out.metrics[s.Name] = 0 // layers the serve path reaches only inside the facade
	}
	out.metrics["trace.append_ms"] = perCall("trace.append")
	out.metrics["core.encode_us"] = perCall("core.encode") * 1000
	out.metrics["outcome.scan_ms"] = perCall("outcome.scan")
	out.metrics["geosocial.update_ms"] = perCall("geosocial.update")
	out.metrics["geosocial.validate_ms"] = perCall("geosocial.validate")
	out.metrics["serve.checksum_ms"] = perCall("serve.checksum")
	out.metrics["serve.incremental_share"] = counters["geoserve_incremental_updates_total"] / float64(appends)
	out.metrics["serve.cache_hit_share"] = counters["geoserve_cache_hits_total"] / max(lookups, 1)
	out.metrics["serve.http_overhead_ms"] = overhead
	tw := median(tracedWall)
	out.metrics["unattributed_share"] = median(unattributed)
	out.metrics["tracing_overhead_share"] = (tw - median(untraced)) / median(untraced)
	out.report["repetitions"] = len(tracedWall)
	out.report["spans"] = last.table()
	out.report["round_trip_p50_ms"] = map[string]float64{
		"upload": median(cr.upload.ms), "append": median(cr.append.ms), "analysis": median(cr.analysis.ms)}
	out.report["layer_sum_p50_ms"] = map[string]float64{
		"upload": median(layerSums["upload"].ms), "append": median(layerSums["append"].ms), "analysis": median(layerSums["analysis"].ms)}
	return out, nil
}

// replayRound does one round of client f's cycles by direct calls, in
// the order the server's handlers make them: register the base set
// (checksum, validate with outcome log), then per cycle upload (spool
// write, checksum, validate, encode), append (OpenAppend + AppendStream +
// Close, checksum, UpdateValidation, encode) and analysis
// (AnalyzeOutcomes, encode). Every result is checked against the cold
// references. It returns the wall time of the cycles and, per operation,
// the time spent inside the layers.
func replayRound(t *tracer, f *clientFixture, refs *serveRefs, dir string, ck *checker) (time.Duration, map[string]*timing, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, nil, err
	}
	manifest, err := f.writeBase(dir, 0)
	if err != nil {
		return 0, nil, err
	}
	opts := func(log string) geosocial.StreamOptions { return geosocial.StreamOptions{OutcomeLog: log} }
	checksum := func(path string) error {
		t0 := t.start()
		_, err := serve.DatasetChecksum(path)
		t.end("serve.checksum", t0, 1)
		return err
	}
	checkPartition := func(what string, res *geosocial.StreamResult, want []byte) error {
		t0 := t.start()
		_, err := res.Encode()
		t.end("core.encode", t0, 1)
		if err != nil {
			return err
		}
		got, err := indented(res.Partition)
		if err != nil {
			return err
		}
		ck.equal(what, got, want)
		return nil
	}
	// Registering the base set is round set-up: it stays outside the
	// spans as it stays outside the cycles' wall time.
	if _, err := serve.DatasetChecksum(manifest); err != nil {
		return 0, nil, err
	}
	prevLog := filepath.Join(dir, "gen-0.gso")
	prev, err := geosocial.ValidateFileOpts(manifest, opts(prevLog))
	if err != nil {
		return 0, nil, err
	}
	sums := map[string]*timing{"upload": {}, "append": {}, "analysis": {}}
	inLayers := func(op string, before time.Duration) {
		if t != nil {
			sums[op].add(t.total() - before)
		}
	}
	var wall time.Duration
	for g := 1; g <= roundCycles; g++ {
		up, err := encodeStream(fmt.Sprintf("replay-up-%d", g), f.pois, f.upload, true)
		if err != nil {
			return 0, nil, err
		}
		delta, err := encodeStream(setName(f.idx, 0), f.pois, f.deltas[g-1], false)
		if err != nil {
			return 0, nil, err
		}
		c0 := time.Now()

		before := t.totalOrZero()
		upPath := filepath.Join(dir, fmt.Sprintf("upload-%d.dataset", g))
		if err := os.WriteFile(upPath, up, 0o644); err != nil {
			return 0, nil, err
		}
		if err := checksum(upPath); err != nil {
			return 0, nil, err
		}
		t0 := t.start()
		res, err := geosocial.ValidateFileOpts(upPath, opts(filepath.Join(dir, fmt.Sprintf("upload-%d.gso", g))))
		t.end("geosocial.validate", t0, 1)
		if err != nil {
			return 0, nil, err
		}
		if err := checkPartition(fmt.Sprintf("replay upload %d partition", g), res, refs.upload[f.idx]); err != nil {
			return 0, nil, err
		}
		inLayers("upload", before)

		before = t.totalOrZero()
		t0 = t.start()
		aw, err := trace.OpenAppend(manifest)
		if err == nil {
			if err = aw.AppendStream(bytes.NewReader(delta)); err == nil {
				err = aw.Close()
			}
		}
		t.end("trace.append", t0, 1)
		if err != nil {
			return 0, nil, err
		}
		if err := checksum(manifest); err != nil {
			return 0, nil, err
		}
		log := filepath.Join(dir, fmt.Sprintf("gen-%d.gso", g))
		t0 = t.start()
		grown, err := geosocial.UpdateValidation(manifest, prev, prevLog, opts(log))
		t.end("geosocial.update", t0, 1)
		if err != nil {
			return 0, nil, err
		}
		if err := checkPartition(fmt.Sprintf("replay append %d partition", g), grown, refs.partition[f.idx][g]); err != nil {
			return 0, nil, err
		}
		inLayers("append", before)

		before = t.totalOrZero()
		t0 = t.start()
		a, err := geosocial.AnalyzeOutcomes(log, geosocial.AnalysisSummary)
		t.end("outcome.scan", t0, 1)
		if err != nil {
			return 0, nil, err
		}
		t0 = t.start()
		_, err = indented(a)
		t.end("core.encode", t0, 1)
		if err != nil {
			return 0, nil, err
		}
		got, err := normalizedSummary(a)
		if err != nil {
			return 0, nil, err
		}
		ck.equal(fmt.Sprintf("replay analysis %d", g), got, refs.summary[f.idx][g])
		inLayers("analysis", before)

		wall += time.Since(c0)
		prev, prevLog = grown, log
	}
	return wall, sums, nil
}
