package experiments

import (
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"prtree"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/workload"
)

// Compaction measures what the online-compaction subsystem buys: the
// dynamic index's insert-stall distribution with logarithmic-method
// merges inline (every base-th insert pays a level rebuild, the top one
// O(N)) versus with background compaction (inserts append to the buffer
// and the merge runs off to the side). Both runs then answer the same
// window queries; the result fingerprints must match exactly — background
// compaction must be invisible to queries.
//
// The background run uses an effectively unbounded merge buffer so the
// measurement isolates the structural insert-path latency (the production
// default bounds the buffer and converts overload into backpressure,
// which would show up here as merge-length waits).
func Compaction(cfg Config) Table {
	cfg = cfg.normalized()
	n := cfg.n(40000)

	t := Table{
		ID:    "compact",
		Title: "Online compaction: insert stalls and query latency, inline vs background merges",
		Columns: []string{
			"mode", "inserts", "stall max ms", "stall p99 ms",
			"query p99 ms", "merges", "write amp", "results crc",
		},
		Notes: "same item set and queries; results crc must match — background merges are invisible to queries",
	}

	items := dataset.Eastern(n, cfg.Seed)
	queries := workload.Squares(geom.ItemsMBR(items), 0.01, cfg.Queries, cfg.Seed)

	for _, background := range []bool{false, true} {
		mode := "sync"
		if background {
			mode = "background"
		}
		maxStall, p99Stall, qp99, st, crc := compactionRun(items, queries, background)
		t.Rows = append(t.Rows, []string{
			mode,
			fmtInt(uint64(n)),
			fmt.Sprintf("%.3f", maxStall.Seconds()*1e3),
			fmt.Sprintf("%.3f", p99Stall.Seconds()*1e3),
			fmt.Sprintf("%.3f", qp99.Seconds()*1e3),
			fmt.Sprintf("%d", st.MergesCompleted),
			fmt.Sprintf("%.2f", st.WriteAmplification),
			fmt.Sprintf("%08x", crc),
		})
	}
	return t
}

// compactionRun loads items into a fresh dynamic index, recording
// per-insert latency, then waits for quiescence and measures per-query
// latency plus a canonical fingerprint of every query's result set.
func compactionRun(items []geom.Item, queries []geom.Rect, background bool) (maxStall, p99Stall, qp99 time.Duration, st prtree.CompactionStats, crc uint32) {
	opts := &prtree.Options{BackgroundCompaction: background}
	if background {
		// Isolate insert-path latency: never convert merge lag into
		// backpressure during the measured load.
		opts.CompactionMaxBuffer = len(items) + 1
	}
	d := prtree.NewDynamic(opts)
	defer d.Close()

	stalls := make([]time.Duration, len(items))
	for i, it := range items {
		start := time.Now()
		d.Insert(it)
		stalls[i] = time.Since(start)
	}

	// Quiesce: let the background supervisor drain the queued merges so
	// both modes answer queries from a settled structure.
	if background {
		deadline := time.Now().Add(2 * time.Minute)
		for {
			st = d.CompactionStats()
			settled := d.BufferLen() < d.BufferCap() &&
				st.MergesStarted == st.MergesCompleted+st.MergesAborted
			if settled || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	st = d.CompactionStats()

	qtimes := make([]time.Duration, len(queries))
	h := crc32.NewIEEE()
	for i, q := range queries {
		start := time.Now()
		res := d.Search(q)
		qtimes[i] = time.Since(start)
		sort.Slice(res, func(a, b int) bool { return res[a].ID < res[b].ID })
		for _, it := range res {
			fmt.Fprintf(h, "%d,%v;", it.ID, it.Rect)
		}
		fmt.Fprint(h, "|")
	}
	return durMax(stalls), durPercentile(stalls, 0.99), durPercentile(qtimes, 0.99), st, h.Sum32()
}

func durMax(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

func durPercentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
