package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricSpec is one metric of BENCHMARK.json: its unit and which
// direction is better. TestSpecsMatchBenchmarkJSON keeps the two lists
// identical. Moves, for a layer metric, names the end-to-end metric and
// workload a change to that layer should move; traced runs print it
// beside the values.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Moves  string `json:"-"`
}

// endToEnd are the metrics every workload reports with --trace 0 and
// BENCHMARK.json bounds. Each one applies to every workload and is never
// zero; README.md gives the per-workload definition. The workload's
// other figures (latency percentiles, the workers-1 baseline) are in the
// report line, unbounded.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "users_per_s", Unit: "users/s", Better: "higher"},
	{Name: "alloc_kb_per_user", Unit: "KiB", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
}

// perLayer are the metrics every workload reports with --trace 1. A
// layer the workload's replay does not call reports 0.
var perLayer = []metricSpec{
	{"trace.open_ms", "ms", "lower", "users_per_s on shards-gen; append_ms on serve-append; ~0 on file-gz"},
	{"trace.open_ms_per_shard", "ms", "lower", "users_per_s on shards-gen"},
	{"trace.fetch_ms", "ms", "lower", "users_per_s and users_per_s_w1 on file-gz (inflate); mmap on shards-gen"},
	{"trace.fetch_mb_per_s", "MB/s", "higher", "users_per_s and users_per_s_w1 on file-gz"},
	{"trace.decode_us_per_user", "us", "lower", "users_per_s on file-gz and shards-gen"},
	{"trace.merge_sets_ms", "ms", "lower", "users_per_s on shards-gen; append_ms on serve-append; absent on file-gz"},
	{"trace.fold_us_per_user", "us", "lower", "users_per_s on shards-gen; append_ms on serve-append; absent on file-gz"},
	{"trace.append_ms", "ms", "lower", "append_ms and users_per_s on serve-append"},
	{"poi.newdb_ms", "ms", "lower", "users_per_s on shards-gen; append_ms on serve-append"},
	{"visits.detect_us_per_user", "us", "lower", "users_per_s_w1 on file-gz and shards-gen; ~0 on serve-append"},
	{"visits.gps_points_per_s", "1/s", "higher", "users_per_s_w1 on file-gz and shards-gen"},
	{"core.match_us_per_user", "us", "lower", "users_per_s on file-gz and shards-gen"},
	{"core.encode_us", "us", "lower", "users_per_s on file-gz and shards-gen"},
	{"classify.us_per_user", "us", "lower", "users_per_s on file-gz and shards-gen"},
	{"outcome.record_us_per_user", "us", "lower", "users_per_s on file-gz; absent on shards-gen"},
	{"outcome.write_ms", "ms", "lower", "users_per_s on file-gz; absent on shards-gen"},
	{"outcome.log_mb", "MB", "lower", "users_per_s on file-gz; absent on shards-gen"},
	{"outcome.scan_ms", "ms", "lower", "analysis_ms on serve-append"},
	{"geosocial.update_ms", "ms", "lower", "append_ms and users_per_s on serve-append"},
	{"geosocial.validate_ms", "ms", "lower", "upload_ms and users_per_s on serve-append"},
	{"serve.checksum_ms", "ms", "lower", "append_ms, upload_ms and users_per_s on serve-append"},
	{"serve.incremental_share", "ratio", "higher", "append_ms on serve-append"},
	{"serve.cache_hit_share", "ratio", "higher", "upload_ms and append_ms on serve-append"},
	{"serve.http_overhead_ms", "ms", "lower", "upload_ms, append_ms and users_per_s on serve-append"},
	{"par.speedup", "ratio", "higher", "users_per_s but not users_per_s_w1 on file-gz and shards-gen"},
	{"par.busy_share", "ratio", "higher", "users_per_s but not users_per_s_w1 on file-gz and shards-gen"},
	{"unattributed_share", "ratio", "lower", "accounting: traced wall not inside a layer span"},
	{"tracing_overhead_share", "ratio", "lower", "accounting: traced replay wall over the untraced workers-1 wall, minus 1"},
}

// runOutcome is what one run produced: the contract metrics, the checks,
// and the workload's full report (every figure it measured, with sample
// counts), printed on the line before the result.
type runOutcome struct {
	metrics map[string]float64
	report  map[string]any
	checks  checker
}

// checker counts checked operations and the ones that failed. Every
// measured operation goes through it; any failure fails the run.
type checker struct {
	attempted int
	failed    int
	errs      []string
}

// equal records one check of got against want.
func (c *checker) equal(what string, got, want []byte) {
	c.attempted++
	if !bytes.Equal(got, want) {
		c.failed++
		c.note("%s: output differs from the reference (%d vs %d bytes)", what, len(got), len(want))
	}
}

// fail records one operation that errored.
func (c *checker) fail(what string, err error) {
	c.attempted++
	c.failed++
	c.note("%s: %v", what, err)
}

func (c *checker) note(format string, args ...any) {
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// failedShare is failed over attempted operations.
func (c *checker) failedShare() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the report line and then the result line. It
// returns an error when the run failed a check or lacks a metric the
// contract requires.
func writeResult(w io.Writer, o *runOutcome, specs []metricSpec, env map[string]any) error {
	line := resultLine{
		Correct:   o.checks.failed == 0 && o.checks.attempted > 0,
		Attempted: o.checks.attempted,
		Failed:    o.checks.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	var missing []string
	for _, s := range specs {
		v, ok := o.metrics[s.Name]
		if !ok {
			missing = append(missing, s.Name)
			continue
		}
		line.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	report := map[string]any{"env": env, "report": o.report, "failed_share": o.checks.failedShare()}
	if moves := make(map[string]string); specs[0].Moves != "" {
		for _, s := range specs {
			moves[s.Name] = s.Moves
		}
		report["should_move"] = moves
	}
	if len(o.checks.errs) > 0 {
		report["errors"] = o.checks.errs
	}
	rb, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", rb)
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	lb, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", lb)
	if !line.Correct {
		return fmt.Errorf("%d of %d checked operations failed", o.checks.failed, o.checks.attempted)
	}
	return nil
}

// environment records what a run's figures depend on besides the code.
func environment(root string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(root),
	}
}

// commit names the code under test: the VCS revision the binary was
// built from when the build saw one, else a digest of the module's Go
// sources and go.mod files under root (a checkout without history).
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
