package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func quickConfig(t *testing.T, root string, workloads []string) config {
	return config{
		workloads: workloads, seed: defaultSeed, seconds: 0.2, trace: true, out: t.TempDir(),
		quick: true, root: root,
	}
}

// TestBenchmarkContract runs every workload at -quick scale and holds the
// run to what BENCHMARK.json promises: every named metric emitted with its
// unit and a finite value, nothing failed, exact counts that repeat, and a
// result that compares as no worse than itself.
func TestBenchmarkContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads, builds and starts prtreeserve")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, w := range bf.Workloads {
		if workloadFuncs[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, bench has none", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndSpec) || len(bf.PerLayer) != len(perLayerSpec) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, bench has %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEndSpec), len(perLayerSpec))
	}
	for i, m := range endToEndSpec {
		if got := bf.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || !name.MatchString(m.name) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %s [%s], bench says %s [%s]", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
	for i, m := range perLayerSpec {
		if got := bf.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || !name.MatchString(m.name) {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %s [%s], bench says %s [%s]", i, got.Name, got.Unit, m.name, m.unit)
		}
	}

	cfg := quickConfig(t, root, workloadNames)
	doc, err := runAll(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != len(workloadNames) {
		t.Fatalf("%d results for %d workloads", len(doc.Results), len(workloadNames))
	}
	for _, res := range doc.Results {
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", res.Workload, res.Attempted, res.Failed)
		}
		for _, m := range endToEndSpec {
			if s, ok := res.EndToEnd[m.name]; !ok || !finite(s.Value) || s.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v (emitted %v)", res.Workload, m.name, s.Value, ok)
			}
		}
		for _, m := range perLayerSpec {
			if s, ok := res.PerLayer[m.name]; !ok || !finite(s.Value) {
				t.Errorf("%s: per-layer %s = %v (emitted %v)", res.Workload, m.name, s.Value, ok)
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+res.Workload+".json")); err != nil {
			t.Errorf("%s: %v", res.Workload, err)
		}
	}
	if _, err := readDocument(filepath.Join(cfg.out, "result.json")); err == nil {
		t.Error("-compare accepted a -quick result")
	}
	if worse := compareSides(bf, []*document{doc}, []*document{doc}, io.Discard); worse != 0 {
		t.Errorf("a result compared with itself has %d worse rows", worse)
	}

	// The counts the program makes repeat exactly on one seed.
	again, err := runAll(quickConfig(t, root, []string{"embed-cache-pressure", "dyn-durable-churn"}), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]*result{}
	for _, res := range doc.Results {
		first[res.Workload] = res
	}
	for _, res := range again.Results {
		a := first[res.Workload]
		if a.EndToEnd["leaf_io_ratio"].Value != res.EndToEnd["leaf_io_ratio"].Value {
			t.Errorf("%s: leaf_io_ratio %v then %v", res.Workload, a.EndToEnd["leaf_io_ratio"].Value, res.EndToEnd["leaf_io_ratio"].Value)
		}
		if a.PerLayer["bulk.build_block_ios"].Value != res.PerLayer["bulk.build_block_ios"].Value {
			t.Errorf("%s: bulk.build_block_ios %v then %v", res.Workload, a.PerLayer["bulk.build_block_ios"].Value, res.PerLayer["bulk.build_block_ios"].Value)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := boundedMetric{Name: "lat", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "ops", Better: "higher", Bound: 0.10}
	steady := func(v float64) summary { return summary{median: v, spread: 0.02, runs: 10} }
	cases := []struct {
		m    boundedMetric
		a, b summary
		want string
	}{
		{lower, steady(100), steady(105), "same"},
		{lower, steady(100), steady(120), "worse"},
		{lower, steady(100), steady(80), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, steady(100), summary{median: 100, spread: 0.4, runs: 10}, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: got %s, want %s", c.m.Better, c.a.median, c.b.median, got, c.want)
		}
	}
}

// TestSegmentCount: the number of segments follows from the seconds asked
// for and from nothing measured.
func TestSegmentCount(t *testing.T) {
	for _, c := range []struct {
		seconds float64
		want    int
	}{{0, minSegments}, {2.4, minSegments}, {18, 18}, {21.6, 22}} {
		if got := segmentCount(c.seconds); got != c.want {
			t.Errorf("segmentCount(%v) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

func TestSameScale(t *testing.T) {
	a := &document{Items: 300_000, Seconds: 18}
	if err := sameScale([]*document{a, {Items: 300_000, Seconds: 18}}); err != nil {
		t.Errorf("equal scales refused: %v", err)
	}
	for _, b := range []*document{{Items: 1_000_000, Seconds: 18}, {Items: 300_000, Seconds: 10}} {
		if sameScale([]*document{a, b}) == nil {
			t.Errorf("items %d, seconds %g accepted beside items %d, seconds %g", b.Items, b.Seconds, a.Items, a.Seconds)
		}
	}
}

// TestQuartile pins the quartiles to Python's statistics.quantiles(v, n=4),
// which is how the benchmark's driver takes a metric's spread.
func TestQuartile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartile(v, 1), quartile(v, 3); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: %v and %v, want 2.75 and 8.25", q1, q3)
	}
	if q1, q3 := quartile(v[:2], 1), quartile(v[:2], 3); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2: %v and %v, want 0.75 and 2.25", q1, q3)
	}
	w := []float64{3, 5, 8, 13, 21, 34, 55}
	if q1, q3 := quartile(w, 1), quartile(w, 3); q1 != 5 || q3 != 34 {
		t.Errorf("quartiles of %v: %v and %v, want 5 and 34", w, q1, q3)
	}
}

func TestSelfTime(t *testing.T) {
	layers := selfTimes([]span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 10_000},
		{ID: 1, Parent: 0, Name: "window", Start: 1_000, End: 7_000},
		{ID: 2, Parent: 0, Name: "encode", Start: 7_000, End: 9_000},
	})
	if got := layers["request"]; got.TotalUS != 10 || math.Abs(got.SelfUS-2) > 1e-9 {
		t.Errorf("request: total %v self %v, want 10 and 2", got.TotalUS, got.SelfUS)
	}
	if got := layers["window"]; got.SelfUS != 6 {
		t.Errorf("window: self %v, want 6", got.SelfUS)
	}
}
