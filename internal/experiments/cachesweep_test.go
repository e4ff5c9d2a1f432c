package experiments

import "testing"

// TestCacheSweepGate is the CI gate over the bounded cache: S3-FIFO must
// meet or beat LRU's hit rate on the hot-set-plus-scan-flood workload it is
// designed for, at every swept capacity, and every swept point must really
// be under pressure.
func TestCacheSweepGate(t *testing.T) {
	if testing.Short() {
		t.Skip("cachesweep runs a file-backed workload")
	}
	pts, readPath := cacheSweepRun(Config{Scale: 0.25, Queries: 50})
	if len(pts) == 0 {
		t.Fatal("empty sweep")
	}
	type key struct {
		pct    int
		policy string
	}
	hitRate := map[key]float64{}
	for _, p := range pts {
		hitRate[key{p.CapPct, p.Policy.String()}] = p.HitRate
		if p.DemandReads == 0 || p.Evictions == 0 {
			t.Errorf("cap %d%% %v: %d demand reads, %d evictions — the cache was not under pressure",
				p.CapPct, p.Policy, p.DemandReads, p.Evictions)
		}
	}
	for _, pct := range []int{10, 25} {
		lru := hitRate[key{pct, "lru"}]
		s3 := hitRate[key{pct, "s3fifo"}]
		if s3 < lru {
			t.Errorf("capacity %d%%: s3fifo hit rate %.4f below lru %.4f", pct, s3, lru)
		}
		t.Logf("capacity %d%% (%s): hit rate lru=%.4f s3fifo=%.4f", pct, readPath, lru, s3)
	}
}

// Example of the rendered table for -v runs and manual inspection.
func TestCacheSweepRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("cachesweep runs a file-backed workload")
	}
	tab := CacheSweep(Config{Scale: 0.1, Queries: 10})
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows, want capacity x policy = 4", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row width %d != %d columns", len(row), len(tab.Columns))
		}
	}
}
