package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"prtree/internal/bulk"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
	"prtree/internal/workload"
)

// CacheSweep measures the file-backed read path under cache pressure: a
// Fig12-style tree is served with the pager capacity capped far below the
// index size (10% and 25% of its pages) under each eviction policy (lru,
// s3fifo), on the one read path the platform has — views of the page file's
// own mapping on Linux, verified preads elsewhere. The workload interleaves
// a hot working set — small windows confined to one corner of the world,
// whose leaf pages and ancestors are re-read constantly — with periodic
// large scan windows that flood the cache with one-touch pages: the access
// pattern LRU handles worst and S3-FIFO's probationary queue is built for.
//
// TestCacheSweepGate (and CI) hold the s3fifo hit rate to at least the lru
// hit rate on this workload; which policy serves more queries per second
// is what the table is for.
func CacheSweep(cfg Config) Table {
	pts, readPath := cacheSweepRun(cfg)
	t := Table{
		ID:    "cachesweep",
		Title: "Cache-pressure sweep: capacity x eviction policy (file backend)",
		Columns: []string{
			"capacity", "policy", "queries/sec", "hit rate", "evictions", "demand reads",
		},
		Notes: "hot-set windows interleaved with scan floods; capacity in pages (percent of index); read path: " + readPath,
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d (%d%%)", p.Capacity, p.CapPct),
			p.Policy.String(),
			fmt.Sprintf("%.0f", p.QPS),
			fmt.Sprintf("%.1f%%", 100*p.HitRate),
			fmtInt(p.Evictions),
			fmtInt(p.DemandReads),
		})
	}
	return t
}

// cachePoint is one sweep configuration's measurement.
type cachePoint struct {
	CapPct   int
	Capacity int
	Policy   storage.EvictionPolicy

	QPS         float64
	HitRate     float64
	Evictions   uint64
	DemandReads uint64
}

// cacheSweepWorkload builds the interleaved hot/scan query sequence. The
// hot set lives in the lower-left 25% x 25% corner of the world; every
// round runs hotPerRound tiny windows there and then one large scan
// window placed anywhere, so a policy that lets scans flush the hot
// working set pays on the very next round.
func cacheSweepWorkload(world geom.Rect, rounds int, seed int64) []geom.Rect {
	const hotPerRound = 8
	hotWorld := geom.NewRect(
		world.MinX, world.MinY,
		world.MinX+0.25*world.Width(), world.MinY+0.25*world.Height(),
	)
	hot := workload.Squares(hotWorld, 0.008, rounds*hotPerRound, seed)
	scans := workload.Squares(world, 0.02, rounds, seed+1)
	out := make([]geom.Rect, 0, len(hot)+len(scans))
	for r := 0; r < rounds; r++ {
		out = append(out, hot[r*hotPerRound:(r+1)*hotPerRound]...)
		out = append(out, scans[r])
	}
	return out
}

// cacheSweepRun builds the tree once and runs the workload at every
// capacity and policy; it also names the read path the platform chose.
func cacheSweepRun(cfg Config) ([]cachePoint, string) {
	cfg = cfg.normalized()
	dir, err := os.MkdirTemp("", "prtree-cachesweep")
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	defer os.RemoveAll(dir)

	fb, err := storage.CreateFile(filepath.Join(dir, "cachesweep.pr"), storage.DefaultBlockSize)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	defer fb.Close()
	items := dataset.Western(cfg.n(60000), cfg.Seed)
	var tree *rtree.Tree
	{
		counting := storage.NewCounting(fb)
		pager := storage.NewPager(counting, -1)
		if err := commitTx(counting, &tree, func() {
			tree = bulk.FromItems(bulk.LoaderPR, pager, items, cfg.bulkOptions())
		}); err != nil {
			panic(fmt.Sprintf("experiments: cachesweep build: %v", err))
		}
		if err := counting.Sync(); err != nil {
			panic(fmt.Sprintf("experiments: cachesweep checkpoint: %v", err))
		}
	}
	pages := tree.Nodes()
	world := geom.ItemsMBR(items)
	queries := cacheSweepWorkload(world, 4*cfg.Queries, cfg.Seed)
	readPath := "verified pread"
	if _, ok := storage.Backend(fb).(storage.StableReader); ok {
		readPath = "views of the file's mapping"
	}

	var pts []cachePoint
	for _, pct := range []int{10, 25} {
		capacity := max(pages*pct/100, 4)
		for _, pol := range []storage.EvictionPolicy{storage.EvictLRU, storage.EvictS3FIFO} {
			counting := storage.NewCounting(fb)
			pager := storage.NewPagerWith(counting, storage.PagerOptions{Capacity: capacity, Policy: pol})
			rt, err := rtree.OpenFromMeta(pager, fb.Meta())
			if err != nil {
				panic(fmt.Sprintf("experiments: cachesweep reopen: %v", err))
			}
			start := time.Now()
			for _, q := range queries {
				rt.QueryCount(q)
			}
			elapsed := time.Since(start)
			cs := pager.CacheStats()
			pts = append(pts, cachePoint{
				CapPct:      pct,
				Capacity:    capacity,
				Policy:      pol,
				QPS:         float64(len(queries)) / elapsed.Seconds(),
				HitRate:     cs.HitRatio(),
				Evictions:   cs.Evictions,
				DemandReads: counting.Stats().Reads,
			})
		}
	}
	return pts, readPath
}
