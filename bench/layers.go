package main

import (
	"os"
	"runtime"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// itemBytes is one stored rectangle: four float64 corners and a uint32
// ID, the paper's 36-byte entry. space_amp divides file bytes by it.
const itemBytes = 36

// visits sums node visits over a workload's distinct windows, from a
// single-threaded untimed pass. The counts repeat exactly for one seed.
type visits struct {
	queries, leaves, nodes, internal, optimal int
}

// visitPass runs query once per window. fps carries each window's result
// count T, b is the leaf capacity: ⌈T/b⌉ leaves is what an optimal index
// reads.
func visitPass(rects []geom.Rect, fps []fingerprint, b int, query func(geom.Rect) (leaves, nodes, internal int)) visits {
	v := visits{queries: len(rects)}
	for k, q := range rects {
		l, n, i := query(q)
		v.leaves, v.nodes, v.internal = v.leaves+l, v.nodes+n, v.internal+i
		v.optimal += optimalLeaves(fps[k].count, b)
	}
	return v
}

// ratio is the paper's yardstick: leaves visited ÷ optimal (1 = optimal).
func (v visits) ratio() float64 { return ratio(float64(v.leaves), float64(v.optimal)) }

func (v visits) report(res *result, layer string) {
	q := float64(v.queries)
	res.layer(layer+".nodes_per_query", float64(v.nodes)/q)
	res.layer(layer+".leaves_per_query", float64(v.leaves)/q)
	if layer == "rtree" {
		res.layer(layer+".internal_per_query", float64(v.internal)/q)
	}
}

// harnessLayers reports how far the harness itself can be trusted.
func harnessLayers(res *result, warm segment, measured, traced phase) {
	res.layer("bench.warmup_s", warm.wall.Seconds())
	untraced := measured.opsPerSec()
	res.layer("bench.trace_overhead_frac", (untraced.Value-traced.opsPerSec().Value)/untraced.Value)
	res.layer("bench.segment_spread_frac", untraced.spread())
}

// runtimeLayers reports the Go runtime's share of n in-process operations.
func runtimeLayers(res *result, before, after runtime.MemStats, n int) {
	res.layer("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(n))
	res.layer("runtime.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
	res.layer("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	res.layer("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
}

// fileLayers opens the closed index files through the storage layer alone:
// page counts, bytes, and the time of one verified page read.
func fileLayers(res *result, paths []string) error {
	var total, inUse int
	var bytes int64
	for i, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		bytes += fi.Size()
		fb, err := storage.OpenFile(path, 0)
		if err != nil {
			return err
		}
		total += fb.NumPages()
		inUse += fb.PagesInUse()
		if i == 0 {
			res.layer("storage.file.read_page_ns", readPageNS(fb))
		}
		fb.Abandon() // read-only probe: leave the file's bytes alone
	}
	res.layer("storage.file.pages_total", float64(total))
	res.layer("storage.file.pages_in_use", float64(inUse))
	res.layer("storage.file.bytes", float64(bytes))
	return nil
}

// readPageNS times FileBackend.Read over up to 2048 written pages spread
// across the file, in a scattered order.
func readPageNS(fb *storage.FileBackend) float64 {
	n := fb.NumPages()
	var ids []storage.PageID
	for i := 0; i < n && len(ids) < 2048; i++ {
		id := storage.PageID(mix(1, uint64(i)) % uint64(n))
		if fb.CheckPage(id) == nil {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return 0
	}
	buf := make([]byte, fb.BlockSize())
	return nsPerCall(len(ids), func(k int) { fb.Read(ids[k], buf) })
}
