// Package geosocial validates geosocial mobility traces against
// ground-truth GPS mobility, reproducing "On the Validity of Geosocial
// Mobility Traces" (Zhang et al., HotNets 2013).
//
// The package is a facade over the full pipeline:
//
//   - generate (or load) a study dataset of paired GPS + checkin traces,
//   - detect visits (stay points) in the GPS traces,
//   - match checkins to visits (α = 500 m, β = 30 min) and partition
//     events into honest / extraneous / missing,
//   - classify extraneous checkins (superfluous / remote / driveby),
//   - analyze incentive correlations, prevalence and burstiness,
//   - fit Levy-walk mobility models and measure the application-level
//     impact on a simulated mobile ad hoc network (AODV).
//
// Quick start:
//
//	study, err := geosocial.GenerateStudy(geosocial.StudyConfig{Scale: 0.2, Seed: 42})
//	...
//	res, err := study.Validate()
//	fmt.Println(res.Partition)          // Figure 1
//	fmt.Println(res.Breakdown())        // §5.1 taxonomy
//
// The full experiment suite (every table and figure in the paper) is
// available through Experiments / RunExperiment.
package geosocial

import (
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"time"

	"geosocial/internal/checkpoint"
	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/detect"
	"geosocial/internal/eval"
	"geosocial/internal/levy"
	"geosocial/internal/manet"
	"geosocial/internal/obs"
	"geosocial/internal/outcome"
	"geosocial/internal/par"
	"geosocial/internal/poi"
	recoverpkg "geosocial/internal/recover"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
	"geosocial/internal/visits"
)

// StudyConfig configures synthetic study generation.
type StudyConfig struct {
	// Scale is the population scale relative to the paper's study
	// (1.0 = 244 primary + 47 baseline users). Values in (0, 1] trade
	// fidelity for speed; 0 defaults to 1.0.
	Scale float64
	// Seed makes the whole study reproducible.
	Seed uint64
	// Parallelism is the number of workers used by every per-user
	// pipeline stage (generation, visit detection + matching,
	// classification). <= 0 selects runtime.GOMAXPROCS(0); 1 runs the
	// serial path. Results are byte-identical for any value and any
	// GOMAXPROCS: per-user random streams are split serially before work
	// fans out, and outcomes land in index-addressed slots.
	Parallelism int
}

// Study is a generated (or loaded) pair of datasets.
type Study struct {
	Primary  *trace.Dataset
	Baseline *trace.Dataset
	cfg      StudyConfig
}

// GenerateStudy produces the synthetic Primary and Baseline datasets
// (the substitution for the paper's user study; see DESIGN.md).
func GenerateStudy(cfg StudyConfig) (*Study, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	if cfg.Scale < 0 {
		return nil, fmt.Errorf("geosocial: negative scale %g", cfg.Scale)
	}
	root := rng.New(cfg.Seed)
	// The per-cohort budget is split so an explicit Parallelism cap bounds
	// the total worker count across the nested fan-out.
	primaryCfg := synth.PrimaryConfig().Scale(cfg.Scale)
	primaryCfg.Parallelism = par.SplitBudget(cfg.Parallelism, 2)
	baselineCfg := synth.BaselineConfig().Scale(cfg.Scale)
	baselineCfg.Parallelism = primaryCfg.Parallelism
	// Split both streams serially so the root stream advances exactly as
	// the serial path does, then generate the two cohorts concurrently.
	cfgs := []synth.Config{primaryCfg, baselineCfg}
	streams := []*rng.Stream{root.Split("primary"), root.Split("baseline")}
	datasets, err := par.Map(cfg.Parallelism, len(cfgs), func(i int) (*trace.Dataset, error) {
		return synth.Generate(cfgs[i], streams[i])
	})
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	return &Study{Primary: datasets[0], Baseline: datasets[1], cfg: cfg}, nil
}

// LoadDataset reads a dataset saved by Dataset.SaveFile / cmd/geogen into
// memory. Compression and encoding (JSON or binary) are detected from
// magic bytes; use ValidateFile to process binary datasets without
// materializing them.
func LoadDataset(path string) (*trace.Dataset, error) { return trace.LoadFile(path) }

// StreamOptions tunes ValidateFileOpts. The zero value selects the
// paper's parameters and the default worker count.
type StreamOptions struct {
	// Params are the matching thresholds (core.DefaultParams when zero).
	Params core.Params
	// VisitConfig parameterizes stay-point detection
	// (visits.DefaultConfig when zero).
	VisitConfig visits.Config
	// Workers is the per-user pipeline worker count (<= 0 selects
	// GOMAXPROCS, 1 the serial path; results are identical for any
	// value).
	Workers int
	// OutcomeLog, when non-empty, is a path the validation writes a
	// GSO1 columnar outcome log to (gzip when it ends in ".gz"): one
	// compact record per user carrying everything the §5–§7 analyses
	// need, consumable by AnalyzeOutcomes and cmd/geoanalyze without
	// per-user outcomes in memory. The log is published atomically on
	// success and holds records in canonical user-ID order, so its
	// bytes are identical for any worker count and any shard split of
	// the same dataset.
	OutcomeLog string
	// CheckpointDir, when non-empty, makes sharded validation crash-safe
	// and resumable: as each shard completes, its results (aggregate
	// counters, user IDs, and outcome-log records when OutcomeLog is
	// set) are published atomically to a checkpoint fragment in this
	// directory, keyed by (manifest checksum, shard checksum, parameter
	// fingerprint). A rerun of the same corpus with the same parameters
	// skips every checkpointed shard and merges its fragment instead,
	// producing a StreamResult — and an outcome log — byte-identical to
	// an uninterrupted run, for any worker count. Only shard-set inputs
	// checkpoint; plain files and explicit path lists ignore the field.
	// See docs/FORMAT.md for the fragment format and atomicity contract.
	CheckpointDir string
	// CheckpointStale overrides how old a crashed run's temporary
	// checkpoint file must be before it is swept at open
	// (checkpoint.DefaultStaleAfter — one hour — when zero). It affects
	// only the sweep, never the checkpoint key or the parameter
	// fingerprint, so changing it does not invalidate existing
	// checkpoints.
	CheckpointStale time.Duration
	// Logf, when non-nil, receives one line per checkpoint event (shard
	// skipped, checkpoint written, corrupt fragment recovered).
	Logf func(format string, args ...any)
	// Spans, when non-nil, collects per-stage, per-shard pipeline spans
	// (decode, fold, segment, match, classify, merge, checkpoint-commit)
	// — record counts and summed wall time — for the post-run breakdown
	// `geovalidate -report` renders. Instrumentation never feeds back
	// into results: with or without a collector the StreamResult and the
	// outcome log are byte-identical, and a nil collector costs nothing
	// on the hot path (no clock reads, no allocation).
	Spans *obs.Collector

	// validated, when non-nil, observes every user ID as its outcome is
	// accumulated, serially on the collecting goroutine. Tests use it to
	// assert which users a run actually validated (the incremental path
	// must touch only appended users).
	validated func(userID int)
}

// StreamResult is the bounded-memory analogue of ValidationResult: the
// aggregate outputs of validating a dataset file (or sharded corpus)
// user by user, without retaining per-user outcomes. The whole struct
// marshals to JSON (geovalidate -json), and the geoserve service caches
// and serves the same representation; see core.StreamResult for the
// field-name compatibility contract.
type StreamResult = core.StreamResult

// ShardStat describes one input stream of a multi-file validation run.
type ShardStat = core.ShardStat

// ValidateFile runs the full validation pipeline over a dataset file
// with the paper's parameters and the default worker count. The path
// may also name a shard-set manifest ("*.manifest.json") or a directory
// containing exactly one — the shards are then read concurrently and
// validated as one corpus with an aggregate result byte-identical to
// validating the equivalent single file.
//
// Binary inputs are streamed: raw frames are fetched sequentially per
// file and decoded + validated on the worker pool, so in-flight users
// stay O(workers + shards) regardless of corpus size (the only
// per-user state retained is the integer duplicate-ID set, as in
// trace.StreamReader). JSON datasets are loaded in memory first (the
// document encoding cannot be streamed).
// The aggregate results are identical to loading the same users and
// running ValidateDataset.
func ValidateFile(path string) (*StreamResult, error) { return ValidateFileWorkers(path, 0) }

// ValidateFileWorkers is ValidateFile with an explicit worker count
// (<= 0 selects GOMAXPROCS, 1 the serial path). The result is identical
// for any value.
func ValidateFileWorkers(path string, workers int) (*StreamResult, error) {
	return ValidateFileOpts(path, StreamOptions{Workers: workers})
}

// ValidateFileOpts is ValidateFile with explicit matching and visit-
// detection parameters (cmd/geovalidate's -alpha/-beta flags thread
// through here).
//
// All CPU-heavy per-user stages — frame decode, validation (visit
// detection + matching) and classification — run inside the bounded
// parallel window on the worker pool; the calling goroutine only
// fetches raw frames and accumulates aggregates, in stream order.
func ValidateFileOpts(path string, opts StreamOptions) (*StreamResult, error) {
	if info, err := os.Stat(path); err == nil &&
		(info.IsDir() || strings.HasSuffix(path, trace.ManifestSuffix)) {
		return validateShardSet(path, opts)
	}
	res, err := ValidatePaths([]string{path}, opts)
	if err != nil {
		return nil, err
	}
	res.Shards = nil // a plain file is not a shard set
	return res, nil
}

// ValidatePaths validates several dataset files as one corpus: every
// file must carry the same dataset name and an identical POI table
// (compared by checksum), user IDs must be unique across the whole set,
// and the aggregate result is byte-identical to validating one file
// holding all the users. Files are read concurrently and decoded on the
// shared worker pool; JSON and binary inputs can be mixed.
func ValidatePaths(paths []string, opts StreamOptions) (*StreamResult, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("geosocial: no dataset paths")
	}
	streams := make([]*trace.DatasetStream, len(paths))
	srcs := make([]trace.FrameSource, len(paths))
	var refSum string
	for i, p := range paths {
		s, err := trace.OpenStream(p)
		if err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
		defer s.Close()
		streams[i] = s
		srcs[i] = s.Frames()
		if i == 0 {
			continue
		}
		if s.Name != streams[0].Name {
			return nil, fmt.Errorf("geosocial: %s holds dataset %q, %s holds %q",
				p, s.Name, paths[0], streams[0].Name)
		}
		if refSum == "" {
			refSum = trace.POIChecksum(streams[0].POIs)
		}
		if trace.POIChecksum(s.POIs) != refSum {
			return nil, fmt.Errorf("geosocial: %s and %s carry different POI tables", paths[0], p)
		}
	}
	db, err := streams[0].DB()
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	res, err := validateSources(streams[0].Name, db, srcs, paths, opts, nil, nil)
	if err != nil {
		return nil, err
	}
	res.Format = streams[0].Format
	return res, nil
}

// validateShardSet validates a manifest-described sharded corpus.
//
// A generational set (manifest Generation > 0) takes the folded plan:
// the delta shards are decoded up front into a DeltaSet (O(appended
// data)), every base-shard source is wrapped so touched users decode
// with their delta frames folded in, and users that exist only in delta
// shards are validated in a post-pass attributed to their home delta
// shard. The result is byte-identical to validating a from-scratch
// corpus of the concatenated data, modulo the per-shard layout.
// Checkpointing is skipped for generational sets: a delta changes every
// touched user's fold, so per-shard fragments keyed on shard content
// alone would be unsound.
func validateShardSet(path string, opts StreamOptions) (*StreamResult, error) {
	ss, err := trace.OpenShardSet(path)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	if ss.Manifest.Shards[0].Delta { // manifests list every base shard first
		return nil, fmt.Errorf("geosocial: %s: shard set has no base shards", path)
	}
	k := len(ss.Manifest.Shards)
	var fold *trace.DeltaSet
	if ss.Manifest.Generation > 0 {
		if fold, err = foldIndex(opts.Spans, func() (*trace.DeltaSet, error) { return trace.MergeSets(ss) }); err != nil {
			return nil, err
		}
	}
	srcs := make([]trace.FrameSource, k)
	labels := shardLabels(ss)
	for i := 0; i < k; i++ {
		if ss.Manifest.Shards[i].Delta {
			// Delta shards are not streamed — their content is already in
			// the DeltaSet — but they keep a stats slot for the new users
			// attributed to them.
			continue
		}
		r, err := ss.OpenShard(i)
		if err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
		defer r.Close()
		if srcs[i] = r; fold != nil {
			srcs[i] = fold.FoldSource(r)
		}
	}
	pois, err := ss.POIs()
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	db, err := poi.NewDB(pois)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	var ck *ckptRun
	if fold == nil {
		if ck, err = openCheckpoints(ss, labels, opts); err != nil {
			return nil, err
		}
	} else if opts.CheckpointDir != "" && opts.Logf != nil {
		opts.Logf("geosocial: generational shard set (generation %d): checkpointing skipped", ss.Manifest.Generation)
	}
	res, err := validateSources(ss.Manifest.Name, db, srcs, labels, opts, ck, fold)
	if err != nil {
		return nil, err
	}
	res.Format = trace.FormatBinary
	res.Generation = ss.Manifest.Generation
	if err := checkNewUsers(ss, res.Shards); err != nil {
		return nil, err
	}
	return res, nil
}

// foldIndex builds a plan's fold index up front: corpus-wide fold work,
// attributed to the pseudo-shard "corpus" in the span report.
func foldIndex(spans *obs.Collector, build func() (*trace.DeltaSet, error)) (*trace.DeltaSet, error) {
	tm := spans.Stage("fold", "corpus").Start()
	ds, err := build()
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	tm.Stop(ds.Len())
	return ds, nil
}

// shardLabels returns the manifest's shard file names, the per-shard
// labels of stats, spans and error messages.
func shardLabels(ss *trace.ShardSet) []string {
	labels := make([]string, len(ss.Manifest.Shards))
	for i, info := range ss.Manifest.Shards {
		labels[i] = info.File
	}
	return labels
}

// checkNewUsers cross-checks the manifest's per-delta-shard accounting:
// a delta shard's stats slot holds exactly the brand-new users it
// introduced.
func checkNewUsers(ss *trace.ShardSet, stats []ShardStat) error {
	for i, info := range ss.Manifest.Shards {
		if info.Delta && stats[i].Users != info.NewUsers {
			return fmt.Errorf("geosocial: delta shard %s introduced %d new users, manifest says %d",
				info.File, stats[i].Users, info.NewUsers)
		}
	}
	return nil
}

// ckptRun carries one sharded validation's checkpoint state: the open
// store, the preloaded fragments of skipped shards and the open
// fragments of live ones. A nil *ckptRun does not checkpoint: every
// method is a no-op, so the streaming loop has no checkpoint branches.
type ckptRun struct {
	store *checkpoint.Store
	sums  []string           // per-shard content checksum (key half)
	metas []*checkpoint.Meta // non-nil marks a checkpointed (skipped) shard
	ids   [][]int            // a skipped shard's stored user IDs; a live shard's so far
	frags []*checkpoint.Frag // a live shard's fragment until it commits
	logf  func(format string, args ...any)
}

// openCheckpoints opens the checkpoint store for a shard set and
// preloads each shard's fragment (meta and user IDs only — outcome-log
// records are replayed later, once the log writer exists). It returns
// nil when opts does not request checkpointing. A fragment that fails
// to decode is removed and its shard revalidates — corruption degrades
// to recomputation, never to a wrong or aborted result.
func openCheckpoints(ss *trace.ShardSet, labels []string, opts StreamOptions) (*ckptRun, error) {
	if opts.CheckpointDir == "" {
		return nil, nil
	}
	// The parameter fingerprint is half of the checkpoint key; logging
	// runs carry a distinct tag because their fragments must hold the
	// per-user records a log-less fragment legitimately omits.
	tag := validationFingerprint(opts)
	if opts.OutcomeLog != "" {
		tag += "+log"
	}
	store, err := checkpoint.OpenStale(opts.CheckpointDir, checkpoint.ManifestChecksum(&ss.Manifest), tag, opts.CheckpointStale)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	k := len(ss.Manifest.Shards)
	ck := &ckptRun{
		store: store,
		sums:  make([]string, k),
		metas: make([]*checkpoint.Meta, k),
		ids:   make([][]int, k),
		frags: make([]*checkpoint.Frag, k),
		logf:  opts.Logf,
	}
	if ck.logf == nil {
		ck.logf = func(string, ...any) {}
	}
	for i, info := range ss.Manifest.Shards {
		sum, err := checkpoint.FileChecksum(filepath.Join(ss.Dir, info.File))
		if err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
		ck.sums[i] = sum
		m, ids, err := store.Load(sum, nil)
		if err != nil {
			ck.logf("geosocial: shard %s: checkpoint unreadable, revalidating: %v", labels[i], err)
			if err := store.Remove(sum); err != nil {
				return nil, fmt.Errorf("geosocial: %w", err)
			}
			continue
		}
		ck.metas[i], ck.ids[i] = m, ids
	}
	return ck, nil
}

// hit reports whether shard i was checkpointed and is not streamed.
func (c *ckptRun) hit(i int) bool { return c != nil && c.metas[i] != nil }

// seed is the checkpointed plan: each skipped shard's counters and user
// IDs go into its slot and the seen map, and its records replay into the
// outcome log (Close canonicalizes record order).
func (c *ckptRun) seed(e *engine) error {
	for i, m := range c.metas {
		if m == nil {
			continue
		}
		e.stats[i].Users = m.Users
		e.stats[i].Partition = m.Partition
		maps.Copy(e.taxs[i], m.Taxonomy)
		e.truths[i].AddCounts(m.Truth)
		for _, id := range c.ids[i] {
			if prev, dup := e.seen[id]; dup {
				return fmt.Errorf("geosocial: duplicate user ID %d (%s and %s)", id, e.labels[prev], e.labels[i])
			}
			e.seen[id] = i
		}
		if e.logw != nil {
			if _, _, err := c.store.Load(c.sums[i], func(data []byte) error {
				rec, err := outcome.DecodeRecord(data)
				if err != nil {
					return err
				}
				return e.logw.Write(rec)
			}); err != nil {
				return fmt.Errorf("geosocial: replay checkpoint for %s: %w", e.labels[i], err)
			}
		}
		c.logf("geosocial: shard %s: checkpoint hit, skipping (%d users)", e.labels[i], m.Users)
	}
	return nil
}

// source begins live shard i's fragment.
func (c *ckptRun) source(i int) error {
	if c == nil {
		return nil
	}
	fr, err := c.store.Begin(c.sums[i])
	if err != nil {
		return fmt.Errorf("geosocial: %w", err)
	}
	c.frags[i] = fr
	return nil
}

// record adds one accounted user of live shard i to its fragment.
func (c *ckptRun) record(i int, r userResult) error {
	if c == nil {
		return nil
	}
	c.ids[i] = append(c.ids[i], r.out.User.ID)
	if r.recBytes != nil {
		return c.frags[i].AddRecord(r.recBytes)
	}
	return nil
}

// commit publishes live shard i's fragment. It runs when the merge
// reports the shard's clean end: every user of the shard has been
// accounted, and a shard's reader reports that end only after
// verifying the trailer and the manifest user count.
func (c *ckptRun) commit(e *engine, i int) error {
	if c == nil {
		return nil
	}
	tm := e.spans[i].commit.Start()
	err := c.frags[i].Commit(&checkpoint.Meta{
		Users:     e.stats[i].Users,
		Partition: e.stats[i].Partition,
		Taxonomy:  e.taxs[i],
		Truth:     e.truths[i].Counts(),
	}, c.ids[i])
	tm.Stop(e.stats[i].Users)
	if err != nil {
		return err
	}
	c.frags[i] = nil
	c.logf("geosocial: shard %s: checkpoint written (%d users)", e.labels[i], e.stats[i].Users)
	return nil
}

// abort drops every uncommitted fragment.
func (c *ckptRun) abort() {
	if c == nil {
		return
	}
	for _, fr := range c.frags {
		if fr != nil {
			fr.Abort()
		}
	}
}

// shardSpans bundles one shard's span cells, one per pipeline stage. A
// nil cell (spans disabled, or a stage the shard's plan never runs)
// times nothing: no clock read, no allocation — the
// zero-cost-when-disabled contract.
type shardSpans struct {
	decode, fold, segment, match, classify, merge, commit *obs.Cell
}

// engine is the one per-user validation engine: the run state (per-shard
// slots, seen-ID map, outcome writer, span cells), a process step on the
// worker pool (segment → match → classify → record distil) and an
// account step on the collecting goroutine. Each shard is fed by one of
// four source plans: live (streamed, validateSources), checkpointed
// (ckptRun.seed), folded (DeltaSet.FoldSource plus the new-user pass)
// or update (UpdateValidation). The slots are commutative integer sums,
// so every plan, and any mix of them, yields the bytes of one cold run.
type engine struct {
	opts    StreamOptions
	v       core.Validator
	cls     classify.Params
	db      *poi.DB
	name    string
	labels  []string
	stats   []ShardStat
	taxs    []map[string]int
	truths  []core.TruthAccum
	seen    map[int]int // user ID -> shard index
	spans   []shardSpans
	logw    *outcome.Writer // nil unless the run writes its own log
	records bool            // distil each user's outcome record
	encode  bool            // and encode it, for a checkpoint fragment
}

// newEngine returns an engine with one empty slot per label.
func newEngine(name string, db *poi.DB, labels []string, opts StreamOptions) *engine {
	e := &engine{
		opts:   opts,
		v:      core.Validator{Params: opts.Params, VisitConfig: opts.VisitConfig},
		cls:    classify.DefaultParams(),
		db:     db,
		name:   name,
		labels: labels,
		stats:  make([]ShardStat, len(labels)),
		taxs:   make([]map[string]int, len(labels)),
		truths: make([]core.TruthAccum, len(labels)),
		seen:   make(map[int]int, 256),
		spans:  make([]shardSpans, len(labels)),
	}
	for i := range labels {
		e.stats[i].Path = labels[i]
		e.taxs[i] = make(map[string]int, classify.NumKinds)
	}
	return e
}

// instrument creates shard i's span cells for the stages its plan runs:
// the per-user stages, plus decode, fold and checkpoint-commit as asked.
// No-op with spans off.
func (e *engine) instrument(i int, decode, fold, commit bool) {
	c, label := e.opts.Spans, e.labels[i]
	if c == nil {
		return
	}
	sp := &e.spans[i]
	sp.segment, sp.match = c.Stage("segment", label), c.Stage("match", label)
	sp.classify, sp.merge = c.Stage("classify", label), c.Stage("merge", label)
	if decode {
		sp.decode = c.Stage("decode", label)
	}
	if fold {
		sp.fold = c.Stage("fold", label)
	}
	if commit {
		sp.commit = c.Stage("checkpoint-commit", label)
	}
}

// userResult is one processed user on its way to account.
type userResult struct {
	out      core.UserOutcome
	cls      *classify.Classification
	rec      *outcome.Record // outcome-log record, nil unless e.records
	recBytes []byte          // its encoding, nil unless e.encode
}

// process runs the CPU-heavy per-user stages on the worker pool,
// record distillation (feature extraction, Levy sampling) included;
// only the log write waits for account.
func (e *engine) process(u *trace.User, sp *shardSpans) (userResult, error) {
	o, err := e.v.ValidateUser(u, e.db, sp.segment, sp.match)
	if err != nil {
		return userResult{}, err
	}
	tm := sp.classify.Start()
	cl, err := classify.ClassifyUser(o, e.cls)
	tm.Stop(1)
	if err != nil {
		return userResult{}, fmt.Errorf("classify: user %d: %w", o.User.ID, err)
	}
	r := userResult{out: o, cls: cl}
	if e.records {
		if r.rec, err = outcome.NewRecord(o, cl); err != nil {
			return userResult{}, err
		}
		if e.encode {
			if r.recBytes, err = outcome.EncodeRecord(r.rec); err != nil {
				return userResult{}, err
			}
		}
	}
	return r, nil
}

// account adds one processed user to shard i's slot on the collecting
// goroutine, rejecting a user ID already seen in any shard.
func (e *engine) account(i int, r userResult) error {
	tm := e.spans[i].merge.Start()
	defer tm.Stop(1)
	id := r.out.User.ID
	if prev, dup := e.seen[id]; dup {
		return fmt.Errorf("duplicate user ID %d (%s and %s)", id, e.labels[prev], e.labels[i])
	}
	e.seen[id] = i
	e.stats[i].Users++
	e.stats[i].Partition.Add(r.out)
	for _, k := range r.cls.Kinds {
		e.taxs[i][k.String()]++
	}
	e.truths[i].Add(r.out)
	if e.opts.validated != nil {
		e.opts.validated(id)
	}
	if e.logw != nil {
		return e.logw.Write(r.rec)
	}
	return nil
}

// foldUsers folds and processes the given users of ds on the worker
// pool, in order, each under its home shard's spans: the folded plan's
// new-user pass and the update plan's touched users.
func (e *engine) foldUsers(ds *trace.DeltaSet, ids []int) ([]userResult, error) {
	return par.Map(e.opts.Workers, len(ids), func(i int) (userResult, error) {
		sp := &e.spans[ds.Home(ids[i])]
		tm := sp.fold.Start()
		u, err := ds.FoldNew(ids[i])
		tm.Stop(1)
		if err != nil {
			return userResult{}, err
		}
		return e.process(u, sp)
	})
}

// finish publishes the outcome log and sums the shard slots, in shard
// order, into the result. Zero taxonomy counts (an update can subtract a
// kind away) are dropped, so the map matches a cold run's.
func (e *engine) finish() (*StreamResult, error) {
	if e.logw != nil {
		if err := e.logw.Close(); err != nil {
			return nil, err
		}
	}
	res := &StreamResult{Name: e.name, Shards: e.stats, Taxonomy: make(map[string]int, classify.NumKinds)}
	var truth core.TruthAccum
	for i := range e.stats {
		res.Users += e.stats[i].Users
		res.Partition.Merge(e.stats[i].Partition)
		for k, c := range e.taxs[i] {
			res.Taxonomy[k] += c
		}
		truth.Merge(e.truths[i])
	}
	for k, c := range res.Taxonomy {
		if c < 0 {
			return nil, fmt.Errorf("taxonomy count %q went negative", k)
		}
		if c == 0 {
			delete(res.Taxonomy, k)
		}
	}
	if truth.Labeled() > 0 {
		sc, err := truth.Score()
		if err != nil {
			return nil, err
		}
		res.Truth = &sc
	}
	return res, nil
}

// validateSources runs the engine behind ValidateFileOpts, ValidatePaths
// and validateShardSet: fetch raw frames per live source, decode and
// process each user on the worker pool (par.MergeStreams), account it
// in the deterministic merged order, and sum the slots in source order.
// The aggregates are sums of per-user integer counts, so they are
// identical to single-stream validation of the same users for any
// worker count and any way of splitting the corpus.
//
// When ck is non-nil the run is checkpointed: sources whose fragment
// was preloaded are not streamed (the checkpointed plan), and every
// live source commits its fragment when the merge reports the source's
// end, so a kill at any point loses at most the shards still in flight.
//
// When fold is non-nil the run folds a generational shard set: entries
// of srcs left nil (the delta shards) are not streamed, and after the
// merge the users that exist only in delta shards are folded, processed
// on the same pool, and accounted against their home delta shard's
// slot. fold and ck are mutually exclusive.
func validateSources(name string, db *poi.DB, srcs []trace.FrameSource, labels []string, opts StreamOptions, ck *ckptRun, fold *trace.DeltaSet) (*StreamResult, error) {
	e := newEngine(name, db, labels, opts)
	if opts.OutcomeLog != "" {
		var err error
		if e.logw, err = outcome.Create(opts.OutcomeLog, name); err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
		defer e.logw.Discard() // no-op once Close has published the log
		e.records, e.encode = true, ck != nil
	}
	defer ck.abort()
	if ck != nil {
		if err := ck.seed(e); err != nil {
			return nil, err
		}
	}

	// The merge streams only the live sources; live[j] maps its source
	// index back to the shard index. Recycling: once account has folded
	// a user into the slots nothing holds it (stats are counts, records
	// copy what they keep), so it goes back to its source's pool for the
	// next decode to fill in place — for sources that opt in via
	// trace.UserRecycler (fold sources retain users and do not).
	var live []int
	var next []func() (trace.Frame, error)
	var recyclers []trace.UserRecycler
	for i, src := range srcs {
		if ck.hit(i) {
			continue
		}
		if src == nil { // a delta shard: its users come from the new-user pass
			e.instrument(i, false, true, false)
			continue
		}
		e.instrument(i, true, false, ck != nil)
		if err := ck.source(i); err != nil {
			return nil, err
		}
		rc, _ := src.(trace.UserRecycler)
		live, next, recyclers = append(live, i), append(next, src.NextFrame), append(recyclers, rc)
	}
	err := par.MergeStreams(opts.Workers, next,
		func(j, _ int, fr trace.Frame) (userResult, error) {
			sp := &e.spans[live[j]]
			tm := sp.decode.Start()
			u, err := srcs[live[j]].DecodeFrame(fr)
			tm.Stop(1)
			if err != nil {
				return userResult{}, err
			}
			return e.process(u, sp)
		},
		func(j, _ int, r userResult) error {
			if err := e.account(live[j], r); err != nil {
				return err
			}
			if err := ck.record(live[j], r); err != nil {
				return err
			}
			if recyclers[j] != nil {
				recyclers[j].RecycleUser(r.out.User)
			}
			return nil
		},
		func(j int) error { return ck.commit(e, live[j]) })
	if err == nil && fold != nil {
		// Users that exist only in delta shards were never seen by the
		// base-shard streams: fold and process them now, in ascending ID
		// order, attributed to the delta shard holding their first frame.
		var newIDs []int
		for _, id := range fold.IDs() {
			if _, ok := e.seen[id]; !ok {
				newIDs = append(newIDs, id)
			}
		}
		var rs []userResult
		if rs, err = e.foldUsers(fold, newIDs); err == nil {
			for i, r := range rs {
				if err = e.account(fold.Home(newIDs[i]), r); err != nil {
					break
				}
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	res, err := e.finish()
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	return res, nil
}

// ValidationResult is the outcome of the §4 pipeline on one dataset.
type ValidationResult struct {
	// Outcomes holds per-user visits and matches.
	Outcomes []core.UserOutcome
	// Partition is the Figure 1 Venn split.
	Partition core.Partition
	// Classifications assigns a Kind to every checkin (parallel to
	// Outcomes and each user's checkin trace).
	Classifications []*classify.Classification
}

// Validate runs visit detection, matching and classification on the
// Primary dataset with the paper's parameters and the study's
// Parallelism.
func (s *Study) Validate() (*ValidationResult, error) {
	return ValidateDatasetWorkers(s.Primary, s.cfg.Parallelism)
}

// ValidateDataset runs the full validation pipeline on any dataset with
// the default worker count (GOMAXPROCS).
func ValidateDataset(ds *trace.Dataset) (*ValidationResult, error) {
	return ValidateDatasetWorkers(ds, 0)
}

// ValidateDatasetWorkers is ValidateDataset with an explicit worker count
// (<= 0 selects GOMAXPROCS, 1 the serial path). The result is identical
// for any value.
func ValidateDatasetWorkers(ds *trace.Dataset, workers int) (*ValidationResult, error) {
	v := core.NewValidator()
	v.Parallelism = workers
	outs, part, err := v.ValidateDataset(ds)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	params := classify.DefaultParams()
	params.Parallelism = workers
	cls, err := classify.ClassifyAll(outs, params)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	return &ValidationResult{Outcomes: outs, Partition: part, Classifications: cls}, nil
}

// Breakdown returns the §5.1 taxonomy counts over all checkins.
func (r *ValidationResult) Breakdown() map[string]int {
	tot := classify.Totals(r.Classifications)
	out := make(map[string]int, classify.NumKinds)
	for k, v := range tot {
		out[k.String()] = v
	}
	return out
}

// TruthScore scores the matcher against generator ground-truth labels
// (synthetic data only).
func (r *ValidationResult) TruthScore() (core.TruthScore, error) {
	return core.ScoreAgainstTruth(r.Outcomes)
}

// Correlations computes the Table 2 matrix.
func (r *ValidationResult) Correlations() (*classify.FeatureCorrelations, error) {
	return classify.CorrelateFeatures(r.Outcomes, r.Classifications)
}

// FilterTradeoff computes the §5.3 user-filtering trade-off curve.
func (r *ValidationResult) FilterTradeoff() classify.FilterTradeoff {
	return classify.ComputeFilterTradeoff(r.Classifications)
}

// BurstDetector evaluates the §7 burstiness-based extraneous-checkin
// detector at the given gap threshold.
func (r *ValidationResult) BurstDetector(maxGap time.Duration) classify.DetectorScore {
	d := classify.BurstDetector{MaxGap: maxGap}
	return classify.EvaluateBurstDetector(r.Outcomes, r.Classifications, d)
}

// TrainDetector trains the §7 machine-learned extraneous-checkin detector
// (logistic regression over trace-local features) and evaluates it by
// k-fold cross-validation grouped by user.
func (r *ValidationResult) TrainDetector(folds int) (detect.Score, error) {
	examples := detect.ExtractAll(r.Outcomes)
	return detect.CrossValidate(examples, folds, detect.DefaultTrainConfig(), 0.5)
}

// RecoverMissing evaluates the §7 missing-location recovery: inferring
// home/work anchors from checkins alone and up-sampling the trace,
// scored as ground-truth visit coverage before and after.
func (r *ValidationResult) RecoverMissing() (recoverpkg.Coverage, error) {
	return recoverpkg.EvaluateAll(r.Outcomes, core.DefaultParams())
}

// MobilityModels fits the three §6.1 Levy-walk models (gps,
// honest-checkin, all-checkin).
func (r *ValidationResult) MobilityModels() (*eval.Models, error) {
	return eval.FitModels(r.Outcomes)
}

// MANETConfig configures the §6.2 application-impact experiment.
type MANETConfig struct {
	Nodes    int     // default 200
	Flows    int     // default 100
	Duration float64 // seconds, default 3600
	Seed     uint64
}

// MANETOutcome is the result of one model's simulation.
type MANETOutcome struct {
	Model   string
	Metrics *manet.Metrics
}

// RunMANET fits the three mobility models from this validation result and
// runs the AODV simulation for each.
func (r *ValidationResult) RunMANET(cfg MANETConfig) ([]MANETOutcome, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 200
	}
	if cfg.Flows == 0 {
		cfg.Flows = 100
	}
	if cfg.Duration == 0 {
		cfg.Duration = 3600
	}
	ctx := &eval.Context{PrimaryOuts: r.Outcomes}
	res, err := eval.RunMANET(ctx, eval.MANETScale{
		Nodes: cfg.Nodes, Flows: cfg.Flows, Duration: cfg.Duration,
	}, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	out := make([]MANETOutcome, len(res))
	for i, m := range res {
		out[i] = MANETOutcome{Model: m.Model, Metrics: m.Metrics}
	}
	return out, nil
}

// GenerateMobility produces planar waypoint traces from a fitted model —
// the building block for driving external network simulators.
func GenerateMobility(m *levy.Model, nodes int, opt levy.GenOptions, seed uint64) ([][]levy.Waypoint, error) {
	return m.Generate(nodes, opt, rng.New(seed))
}

// Experiments returns the experiment IDs in presentation order (every
// table and figure in the paper).
func Experiments() []string { return eval.IDs() }

// RunExperiment executes one experiment at the study's scale and writes
// its report to w.
func (s *Study) RunExperiment(id string, w io.Writer) error {
	ctx, err := s.evalContext()
	if err != nil {
		return err
	}
	rep, err := eval.Run(ctx, id)
	if err != nil {
		return fmt.Errorf("geosocial: %w", err)
	}
	return rep.Render(w)
}

// evalContext adapts the study to the experiment harness, validating the
// Primary and Baseline datasets concurrently.
func (s *Study) evalContext() (*eval.Context, error) {
	ctx, err := eval.NewContextFromDatasets(s.Primary, s.Baseline, s.cfg.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	ctx.Scale, ctx.Seed = s.cfg.Scale, s.cfg.Seed
	return ctx, nil
}
