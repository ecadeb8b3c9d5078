package geosocial

// TestInstrumentationPreservesBytes is the observability layer's hard
// acceptance contract: attaching a span collector must not change a
// single output byte. The StreamResult JSON document and the GSO1
// outcome log of an instrumented run are compared byte-for-byte against
// an uninstrumented run, for a single binary file, a shard-set
// manifest and an incremental update of an appended set, at workers 1
// and 8.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"geosocial/internal/core"
	"geosocial/internal/obs"
	"geosocial/internal/trace"
)

func TestInstrumentationPreservesBytes(t *testing.T) {
	s := getStudy(t)
	dir := t.TempDir()
	binPath := filepath.Join(dir, "primary.bin.gz")
	if err := s.Primary.SaveFile(binPath); err != nil {
		t.Fatal(err)
	}
	manifest, err := s.Primary.SaveShards(t.TempDir(), trace.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}

	// runOnce validates in with or without a span collector and returns
	// the result's JSON document and the outcome log bytes.
	runOnce := func(t *testing.T, in string, workers int, spans *obs.Collector) (doc, gso []byte) {
		t.Helper()
		logPath := filepath.Join(t.TempDir(), "out.gso")
		res, err := ValidateFileOpts(in, StreamOptions{
			Workers:    workers,
			OutcomeLog: logPath,
			Spans:      spans,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.WriteIndentedJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		gso, err = os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), gso
	}

	for _, in := range []string{binPath, manifest} {
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("%s/workers=%d", filepath.Base(in), workers)
			t.Run(name, func(t *testing.T) {
				plainDoc, plainGSO := runOnce(t, in, workers, nil)
				spans := obs.NewCollector()
				instrDoc, instrGSO := runOnce(t, in, workers, spans)

				if !bytes.Equal(plainDoc, instrDoc) {
					t.Error("StreamResult JSON differs between instrumented and uninstrumented runs")
				}
				if !bytes.Equal(plainGSO, instrGSO) {
					t.Error("outcome log bytes differ between instrumented and uninstrumented runs")
				}

				// Guard against a vacuous pass: the collector must have
				// seen real pipeline work.
				requireStages(t, spans, "decode", "match", "classify")
			})
		}
	}

	// The incremental update plan: one appended generation folded into
	// a previous result, with and without a collector.
	base, gens, _ := splitAppendCorpus(t, "day")
	updDir := t.TempDir()
	updManifest, err := base.SaveShards(updDir, trace.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	prevLog := filepath.Join(updDir, "gen0.gso")
	prev, err := ValidateFileOpts(updManifest, StreamOptions{Workers: 1, OutcomeLog: prevLog})
	if err != nil {
		t.Fatal(err)
	}
	applyAppend(t, updManifest, gens[0])
	runUpdate := func(t *testing.T, workers int, spans *obs.Collector) (doc, gso []byte) {
		t.Helper()
		logPath := filepath.Join(t.TempDir(), "upd.gso")
		res, err := UpdateValidation(updManifest, prev, prevLog, StreamOptions{
			Workers:    workers,
			OutcomeLog: logPath,
			Spans:      spans,
		})
		if err != nil {
			t.Fatal(err)
		}
		return resultJSON(t, res), readFile(t, logPath)
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("update/workers=%d", workers), func(t *testing.T) {
			plainDoc, plainGSO := runUpdate(t, workers, nil)
			spans := obs.NewCollector()
			instrDoc, instrGSO := runUpdate(t, workers, spans)
			if !bytes.Equal(plainDoc, instrDoc) {
				t.Error("updated StreamResult JSON differs between instrumented and uninstrumented runs")
			}
			if !bytes.Equal(plainGSO, instrGSO) {
				t.Error("compacted outcome log bytes differ between instrumented and uninstrumented runs")
			}
			requireStages(t, spans, "fold", "segment", "match", "classify")
		})
	}
}

// requireStages fails unless the collector recorded work and its report
// names every wanted stage.
func requireStages(t *testing.T, spans *obs.Collector, stages ...string) {
	t.Helper()
	rep := spans.Report()
	if len(rep.Stages) == 0 || rep.TotalOps == 0 {
		t.Fatalf("collector recorded no spans: %+v", rep)
	}
	for _, want := range stages {
		found := false
		for _, st := range rep.Stages {
			if st.Stage == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("stage %q missing from span report (got %+v)", want, rep.Stages)
		}
	}
}
