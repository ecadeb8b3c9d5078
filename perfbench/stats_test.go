package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.5, 7.25, 2.0}, [3]float64{0.875, 2.55, 6.2125}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{4, 1, 9}, [3]float64{1, 4, 9}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v (%v), want %v", c.xs, q1, q2, q3, ok, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should not be ok")
	}
}

func series(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
		wantV float64
		ok    bool
	}{
		{9, 0, 0, false},   // even the median has only 4 beyond
		{20, 50, 10, true}, // p75 has 5 beyond, p50 has 10
		{100, 90, 90, true},
		{99, 75, 75, true}, // p90 of 99 is rank 90: 9 beyond
		{200, 95, 190, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		p, v, ok := tailPercentile(series(c.n))
		if ok != c.ok || p != c.wantP || !near(v, c.wantV) {
			t.Errorf("n=%d: tailPercentile = p%v %v %v, want p%v %v %v", c.n, p, v, ok, c.wantP, c.wantV, c.ok)
		}
	}
}

func TestTimingSummary(t *testing.T) {
	var tm timing
	tm.ms = series(150)
	s := tm.summary()
	if s.N != 150 || !near(s.P50, 75.5) || !near(s.Q1, 37.75) || !near(s.Q3, 113.25) ||
		!s.HasP90 || !near(s.P90, 135) || s.TailP != 90 {
		t.Errorf("summary = %+v", s)
	}
	tm.ms = series(30)
	if s := tm.summary(); s.HasP90 || s.TailP != 50 {
		t.Errorf("30 samples cannot give p90: %+v", s)
	}
}

// A corrupted output must count as a failed operation, mark the result
// incorrect and make the run fail.
func TestCorruptedResultCountsAsFailed(t *testing.T) {
	ref := []byte(`{"name":"x","users":3}`)
	o := &runOutcome{metrics: map[string]float64{}}
	for _, s := range endToEnd {
		o.metrics[s.Name] = 1
	}
	o.checks.equal("call 0", append([]byte(nil), ref...), ref)
	bad := append([]byte(nil), ref...)
	bad[len(bad)-2] = '4'
	o.checks.equal("call 1", bad, ref)
	if o.checks.attempted != 2 || o.checks.failed != 1 || o.checks.failedShare() != 0.5 {
		t.Fatalf("checker = %+v", o.checks)
	}
	var out bytes.Buffer
	if err := writeResult(&out, o, endToEnd, map[string]any{}); err == nil {
		t.Fatal("writeResult accepted a run with a failed check")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Attempted != 2 || line.Failed != 1 {
		t.Errorf("result line = %+v", line)
	}
}

func TestMissingMetricPrintsNoResult(t *testing.T) {
	o := &runOutcome{metrics: map[string]float64{"setup_s": 1}}
	o.checks.attempted = 1
	var out bytes.Buffer
	if err := writeResult(&out, o, endToEnd, map[string]any{}); err == nil {
		t.Fatal("writeResult accepted a run without every metric")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("a result line was printed: %s", out.String())
	}
}

// BENCHMARK.json and the metric tables here must name the same metrics
// with the same units and directions, in the same order.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}
