package main

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	"prtree"
	"prtree/internal/geom"
)

// embed-cache-pressure: an index larger than its page cache and no
// network. 80 % of the calls draw from a small hot set that fits the
// cache, 20 % from large scans that flush it.
const (
	embedHotRects  = 196 // 14×14
	embedHotArea   = 0.0005
	embedScanRects = 2025 // 45×45
	embedScanArea  = 0.01
	embedHotShare  = 80    // percent of operations drawn from the hot set
	embedCacheDiv  = 10    // cache capacity = Nodes() / embedCacheDiv
	embedSegOps    = 12000 // operations per segment, ≈1 s on the seed code
	embedWarmOps   = 4000  // calls timed for prtree.query_warm_us
)

func runEmbed(r *run, res *result) error {
	cfg := r.cfg
	resetPeakRSS()
	dir := filepath.Join(r.tmp, "embed")
	path := filepath.Join(dir, "index.pr")

	// Set-up, repeated: generate, external bulk load into a fresh file,
	// close, reopen with the small cache. setup_s is the bulk loader's cost.
	var (
		items    []geom.Item
		tree     *prtree.Tree
		setups   []float64
		buildS   float64
		buildIOs uint64
		openS    float64
	)
	defer func() {
		if tree != nil {
			tree.Close()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if tree != nil {
			if err := tree.Close(); err != nil {
				return err
			}
			tree = nil
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		items = generateItems(cfg.items())
		built, err := prtree.Create(path, &prtree.Options{Parallelism: r.procs})
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := built.BulkLoad(prtree.PR, items); err != nil {
			built.Close()
			return err
		}
		buildS = time.Since(t1).Seconds()
		buildIOs = built.IOStats().Total()
		nodes := built.Nodes()
		if err := built.Close(); err != nil {
			return err
		}
		t2 := time.Now()
		if tree, err = prtree.Open(path, &prtree.Options{CacheCapacity: max(nodes/embedCacheDiv, 1)}); err != nil {
			return err
		}
		openS = time.Since(t2).Seconds()
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.e2e("setup_s", setups...)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	res.e2e("space_amp", float64(fi.Size())/float64(len(items)*itemBytes))

	world := mbrOf(items)
	hot := windows(world, embedHotArea, cfg.ops(embedHotRects), cfg.seed+1)
	rects := append(hot, windows(world, embedScanArea, cfg.ops(embedScanRects), cfg.seed+2)...)
	segOps := cfg.ops(embedSegOps)
	res.Counts["items"], res.Counts["distinct_rects"], res.Counts["segment_ops"] = len(items), len(rects), segOps
	res.Counts["cache_pages"], res.Counts["tree_pages"] = tree.CacheStats().Capacity, tree.Nodes()

	fps, bad, err := verifyAll(items, rects, callers, func(_ int, q geom.Rect) ([]geom.Item, error) {
		return tree.Collect(prtree.Window(q))
	})
	if err != nil {
		return err
	}
	res.count(int64(len(rects)), int64(bad))

	seed := uint64(cfg.seed)
	pick := func(opno uint64) int {
		u := mix(seed, opno)
		if u%100 < embedHotShare {
			return int((u >> 8) % uint64(len(hot)))
		}
		return len(hot) + int((u>>8)%uint64(len(rects)-len(hot)))
	}
	mkOp := func(t *prtree.Tree, tr *tracer) opFunc {
		return func(c int, opno uint64) (time.Duration, bool) {
			k := pick(opno)
			ref := tr.begin(c, "prtree.count", -1, int64(opno))
			t0 := time.Now()
			n, err := t.Count(prtree.Window(rects[k]))
			d := time.Since(t0)
			tr.end(ref)
			return d, err == nil && n == fps[k].count
		}
	}

	warm := runSegment(callers, segOps/2+1, baseWarmup, mkOp(tree, nil))
	res.count(int64(len(warm.lat)), int64(warm.failed))
	measured := runPhase(cfg.seconds, callers, segOps, baseMeasured, mkOp(tree, nil), nil)
	res.count(measured.ops())
	res.timing(measured, measured)

	visits := visitPass(rects, fps, tree.Fanout(), func(q geom.Rect) (int, int, int) {
		var st prtree.QueryStats
		tree.Count(prtree.Window(q).WithStats(&st))
		return st.LeavesVisited, st.NodesVisited, st.InternalVisited
	})
	res.e2e("leaf_io_ratio", visits.ratio())
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	res.e2e("peak_rss_mb", rss)
	if !cfg.trace {
		return nil
	}

	// Traced phase: one span per facade call, the pager's and the file's
	// counters read at every segment boundary.
	tr := newTracer(callers)
	var cs1 prtree.CacheStats
	var io1 prtree.IOStats
	readCounters := func() {
		cs1, io1 = tree.CacheStats(), tree.IOStats()
		tr.counter("storage.pager.hits", float64(cs1.Hits))
		tr.counter("storage.pager.misses", float64(cs1.Misses))
		tr.counter("storage.pager.evictions", float64(cs1.Evictions))
		tr.counter("storage.file.block_reads", float64(io1.Reads))
	}
	readCounters()
	cs0, io0 := cs1, io1
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced := runPhase(cfg.seconds/2, callers, segOps, baseTraced, mkOp(tree, tr), readCounters)
	runtime.ReadMemStats(&m1)
	ops, failed := traced.ops()
	res.count(ops, failed)
	runtimeLayers(res, m0, m1, int(ops))
	harnessLayers(res, warm, measured, traced)

	n := float64(ops)
	hits, misses := float64(cs1.Hits-cs0.Hits), float64(cs1.Misses-cs0.Misses)
	res.layer("storage.pager.hit_ratio", ratio(hits, hits+misses))
	res.layer("storage.pager.misses_per_op", misses/n)
	res.layer("storage.pager.evictions_per_op", float64(cs1.Evictions-cs0.Evictions)/n)
	res.layer("storage.pager.prefetch_used_frac", ratio(float64(cs1.PrefetchUsed-cs0.PrefetchUsed), float64(cs1.PrefetchIssued-cs0.PrefetchIssued)))
	res.layer("storage.pager.resident_pages", float64(cs1.Resident))
	dio := io1.Sub(io0)
	res.layer("storage.file.block_reads_per_op", float64(dio.Reads)/n)
	res.layer("storage.file.block_writes_per_op", float64(dio.Writes)/n)
	res.layer("storage.file.prefetch_reads_per_op", float64(dio.PrefetchReads)/n)

	visits.report(res, "rtree")
	res.layer("rtree.height", float64(tree.Height()))
	leafUtil, _ := tree.Utilization()
	res.layer("rtree.leaf_utilization", leafUtil)
	res.layer("bulk.build_s", buildS)
	res.layer("bulk.build_block_ios", float64(buildIOs))
	res.layer("bulk.build_ios_per_input_block", float64(buildIOs)/float64(optimalLeaves(len(items), tree.Fanout())))
	res.layer("prtree.open_s", openS)

	t0 := time.Now()
	err = tree.Close()
	tree = nil
	if err != nil {
		return err
	}
	res.layer("prtree.close_s", time.Since(t0).Seconds())

	// The same calls with everything resident: what traversal alone costs.
	t0 = time.Now()
	warmTree, err := prtree.Open(path, nil)
	if err != nil {
		return err
	}
	res.layer("prtree.reopen_s", time.Since(t0).Seconds())
	for _, q := range rects {
		warmTree.Count(prtree.Window(q))
	}
	lat := make([]float64, cfg.ops(embedWarmOps))
	warmOp := mkOp(warmTree, tr)
	for i := range lat {
		d, _ := warmOp(0, basePlain+uint64(i))
		lat[i] = us(d)
	}
	res.layer("prtree.query_warm_us", lat...)
	if err := warmTree.Close(); err != nil {
		return err
	}
	if err := fileLayers(res, []string{path}); err != nil {
		return err
	}
	if cfg.out != "" {
		return tr.write(cfg.out, res.Workload)
	}
	return nil
}
