package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"prtree"
	"prtree/internal/geom"
	"prtree/internal/storage"
)

// dyn-durable-churn: one writer commits mutations to the durable dynamic
// index (every one a WAL commit with its fsync) while one reader queries
// it; then the index is synced, closed and reopened, and must still hold
// exactly the acknowledged writes.
const (
	dynPreload          = 4096  // mutations that build the starting index, inside set-up
	dynSegOps           = 1500  // mutations per segment: 0.6 s on the starting index, 1.3 s by the 18th segment, on the seed code
	dynDeleteEvery      = 10    // every tenth mutation deletes an earlier item
	dynArea             = 0.001 // reader window area as a share of the world
	dynReadRects        = 1024  // distinct reader windows
	dynReadsPerMutation = 2     // windows the reader answers per committed mutation
	dynQuiesced         = 484   // windows of the post-Sync and post-reopen passes
	dynYardRects        = 16384 // windows of the leaf_io_ratio pass: enough that their placement is not felt
)

// leafCapacity is the paper's B: 36-byte entries in a 4 KB block.
const leafCapacity = prtree.DefaultBlockSize / itemBytes

// churn is the writer: it applies the mutation stream and keeps the live
// set, which is also the oracle's.
type churn struct {
	d     *prtree.Dynamic
	seed  uint64
	fresh []geom.Item // never inserted yet
	dead  []geom.Item // deleted, reusable once fresh runs out
	live  []geom.Item
	n     uint64 // mutations applied
}

// step applies the next mutation and returns its latency and whether the
// index acknowledged it. Which kind it is depends on its position alone, so
// every seed builds the same shape of index.
func (c *churn) step() (time.Duration, bool) {
	c.n++
	if c.n%dynDeleteEvery == 0 && len(c.live) > 0 {
		j := int(mix(c.seed, c.n) % uint64(len(c.live)))
		victim := c.live[j]
		last := len(c.live) - 1
		c.live[j] = c.live[last]
		c.live = c.live[:last]
		c.dead = append(c.dead, victim)
		t0 := time.Now()
		ok, err := c.d.DeleteE(victim)
		return time.Since(t0), ok && err == nil
	}
	var it geom.Item
	if len(c.fresh) > 0 {
		it, c.fresh = c.fresh[0], c.fresh[1:]
	} else {
		it, c.dead = c.dead[len(c.dead)-1], c.dead[:len(c.dead)-1]
	}
	c.live = append(c.live, it)
	t0 := time.Now()
	err := c.d.InsertE(it)
	return time.Since(t0), err == nil
}

// dynSegment runs n mutations on one goroutine while another answers
// dynReadsPerMutation windows for every mutation the writer has committed.
// Both sides are closed loops; the reader is paced by the writer because a
// free-running reader on this 2-CPU box allocates ~160 MB/s of results, and
// then the garbage collector and the scheduler, not the index, set the
// writer's tail (same-seed runs disagreed by a third). The reads still
// overlap the next mutation's commit, which is the interference wanted.
func dynSegment(c *churn, n int, rects []geom.Rect, readNo *uint64, tr *tracer) (w, rd segment) {
	// Room for every token: the writer never waits for the reader.
	committed := make(chan struct{}, n)
	var wg sync.WaitGroup
	w.lat = make([]time.Duration, n)
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(committed)
		for i := range w.lat {
			ref := tr.begin(0, "prtree.dynamic.mutate", -1, int64(c.n))
			d, ok := c.step()
			tr.end(ref)
			w.lat[i] = d
			if !ok {
				w.failed++
			}
			committed <- struct{}{}
		}
	}()
	go func() {
		defer wg.Done()
		for range committed {
			for i := 0; i < dynReadsPerMutation; i++ {
				q := rects[mix(c.seed+1, *readNo)%uint64(len(rects))]
				ref := tr.begin(1, "prtree.dynamic.search", -1, int64(*readNo))
				t0 := time.Now()
				out := c.d.Search(q)
				rd.lat = append(rd.lat, time.Since(t0))
				tr.end(ref)
				*readNo++
				for _, it := range out {
					if !it.Rect.Intersects(q) {
						rd.failed++
						break
					}
				}
			}
		}
	}()
	wg.Wait()
	w.wall = time.Since(start)
	// The reader's rate is per second it spent answering, not per second
	// of wall clock: the wall clock rate is the writer's, times two.
	for _, d := range rd.lat {
		rd.wall += d
	}
	sortDurations(w.lat)
	sortDurations(rd.lat)
	return w, rd
}

// dynPhase runs segmentCount(seconds) dynSegments.
func dynPhase(seconds float64, c *churn, segOps int, rects []geom.Rect, readNo *uint64, tr *tracer, boundary func()) (w, rd phase) {
	forSegments(seconds, boundary, func(int) {
		ws, rs := dynSegment(c, segOps, rects, readNo, tr)
		w.segs, rd.segs = append(w.segs, ws), append(rd.segs, rs)
	})
	return w, rd
}

// checkAgainstLive compares the index's full answers on rects with a
// brute-force pass over the live set and returns the mismatch count, the
// fingerprints, and the node visits.
func checkAgainstLive(d *prtree.Dynamic, live []geom.Item, rects []geom.Rect) (int, []fingerprint, visits) {
	byID := append([]geom.Item(nil), live...)
	sortByID(byID)
	fps := make([]fingerprint, len(rects))
	bad := 0
	var want []geom.Item
	for k, q := range rects {
		want = bruteForce(byID, q, want[:0])
		fps[k] = fingerprintOf(want)
		got := d.Search(q)
		sortByID(got)
		if !sameItems(got, want) {
			bad++
		}
	}
	v := visitPass(rects, fps, leafCapacity, func(q geom.Rect) (int, int, int) {
		st := d.Query(q, nil)
		return st.LeavesVisited, st.NodesVisited, st.NodesVisited - st.LeavesVisited
	})
	return bad, fps, v
}

func runDyn(r *run, res *result) error {
	cfg := r.cfg
	resetPeakRSS()
	dir := filepath.Join(r.tmp, "dyn")
	path := filepath.Join(dir, "index.pr")
	preload, segOps := cfg.ops(dynPreload), cfg.ops(dynSegOps)

	// A pass-through hook: it decorates nothing and only remembers the
	// file backend, whose WAL and persistence counters have no other
	// public route out of a Dynamic.
	var fb *storage.FileBackend
	opts := &prtree.Options{WrapBackend: func(b prtree.Backend) prtree.Backend {
		fb, _ = storage.AsFile(b)
		return b
	}}

	// Set-up, repeated: generate, create the file, build the starting
	// index through the durable write path, sync.
	var (
		c      *churn
		world  geom.Rect
		setups []float64
		openS  float64
	)
	defer func() {
		if c != nil && c.d != nil {
			c.d.Close()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			if err := c.d.Close(); err != nil {
				return err
			}
			c = nil
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		items := generateItems(cfg.items())
		t1 := time.Now()
		d, err := prtree.CreateDynamic(path, opts)
		if err != nil {
			return err
		}
		openS = time.Since(t1).Seconds()
		c = &churn{d: d, seed: uint64(cfg.seed), fresh: items}
		for j := 0; j < preload; j++ {
			if _, ok := c.step(); !ok {
				return fmt.Errorf("preload mutation %d was not acknowledged", j)
			}
		}
		if err := d.Sync(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		world = mbrOf(items)
	}
	res.e2e("setup_s", setups...)
	res.count(int64(preload), 0)
	rects := windows(world, dynArea, cfg.ops(dynReadRects), cfg.seed+1)
	quiesced := windows(world, dynArea, cfg.ops(dynQuiesced), cfg.seed+2)
	yard := windows(world, dynArea, cfg.ops(dynYardRects), cfg.seed+3)
	res.Counts["preload_mutations"], res.Counts["segment_ops"], res.Counts["distinct_rects"] = preload, segOps, len(rects)

	// The starting index is the same for every run of a seed, so the
	// exact-count metrics are taken on it, before timing moves the state.
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	res.e2e("space_amp", float64(fi.Size())/float64(len(c.live)*itemBytes))
	bad, _, startVisits := checkAgainstLive(c.d, c.live, yard)
	res.count(int64(len(yard)), int64(bad))
	res.e2e("leaf_io_ratio", startVisits.ratio())

	var readNo uint64
	warmW, warmR := dynSegment(c, segOps/2+1, rects, &readNo, nil)
	w, rd := dynPhase(cfg.seconds, c, segOps, rects, &readNo, nil, nil)
	for _, p := range []phase{{segs: []segment{warmW, warmR}}, w, rd} {
		res.count(p.ops())
	}
	res.timing(w, rd)

	var tr *tracer
	if cfg.trace {
		tr = newTracer(callers)
		dynTracedLayers(res, c, fb, cfg.seconds/2, segOps, rects, &readNo, tr, warmW, w, rd)
	}

	// Durability: after Sync the index equals the live set; after Close
	// and OpenDynamic it still does, answer for answer.
	if err := c.d.Sync(); err != nil {
		return err
	}
	bad, endFPs, endVisits := checkAgainstLive(c.d, c.live, quiesced)
	res.count(int64(len(quiesced)), int64(bad))
	res.Counts["mutations"], res.Counts["live_items"] = int(c.n), len(c.live)
	if cfg.trace {
		dynStateLayers(res, c, endVisits, quiesced, endFPs)
	}
	t0 := time.Now()
	err = c.d.Close()
	c.d = nil
	if err != nil {
		return err
	}
	closeS := time.Since(t0).Seconds()
	t0 = time.Now()
	if c.d, err = prtree.OpenDynamic(path, opts); err != nil {
		return err
	}
	reopenS := time.Since(t0).Seconds()
	// Both passes are held, item by item, to the same oracle answers, so a
	// reopened index that passes also equals the index before Close.
	bad, _, _ = checkAgainstLive(c.d, c.live, quiesced)
	res.count(int64(len(quiesced)), int64(bad))
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	res.e2e("peak_rss_mb", rss)
	if !cfg.trace {
		return nil
	}

	res.layer("prtree.open_s", openS)
	res.layer("prtree.close_s", closeS)
	res.layer("prtree.reopen_s", reopenS)
	err = c.d.Close()
	c.d = nil
	if err != nil {
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

// dynTracedLayers runs the traced phase and reports the write path's
// layers from the counter deltas across it.
func dynTracedLayers(res *result, c *churn, fb *storage.FileBackend, seconds float64, segOps int, rects []geom.Rect, readNo *uint64, tr *tracer, warm segment, measured, reads phase) {
	type counters struct {
		io    prtree.IOStats
		wal   storage.WALStats
		steps int64
		n     uint64
	}
	var c1 counters
	readCounters := func() {
		c1 = counters{io: c.d.IOStats(), wal: fb.WALStats(), steps: fb.PersistSteps(), n: c.n}
		tr.counter("storage.wal.bytes", float64(c1.wal.Bytes))
		tr.counter("storage.file.persist_steps", float64(c1.steps))
		tr.counter("storage.file.block_writes", float64(c1.io.Writes))
	}
	readCounters()
	c0 := c1
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w, rd := dynPhase(seconds, c, segOps, rects, readNo, tr, readCounters)
	runtime.ReadMemStats(&m1)
	wOps, wFailed := w.ops()
	rOps, rFailed := rd.ops()
	res.count(wOps+rOps, wFailed+rFailed)
	runtimeLayers(res, m0, m1, int(wOps+rOps))
	harnessLayers(res, warm, measured, w)

	n := float64(c1.n - c0.n)
	dio := c1.io.Sub(c0.io)
	walBytes := float64(c1.wal.Bytes - c0.wal.Bytes)
	res.layer("storage.file.block_reads_per_op", float64(dio.Reads)/n)
	res.layer("storage.file.block_writes_per_op", float64(dio.Writes)/n)
	res.layer("storage.file.prefetch_reads_per_op", float64(dio.PrefetchReads)/n)
	res.layer("storage.file.persist_steps_per_mutation", float64(c1.steps-c0.steps)/n)
	res.layer("storage.wal.bytes_per_mutation", walBytes/n)
	res.layer("storage.wal.records_per_mutation", float64(c1.wal.Records-c0.wal.Records)/n)
	res.layer("storage.wal.overhead_frac", ratio(walBytes, float64(dio.Writes)*float64(fb.BlockSize())))

	// The stall a caller can meet, beside the amortised rate: the worst
	// single mutation and the 99.9th percentile over the measured phase.
	var all []time.Duration
	for _, s := range measured.segs {
		all = append(all, s.lat...)
	}
	sortDurations(all)
	res.layer("prtree.mutation_stall_max_ms", us(all[len(all)-1])/1e3)
	res.layer("prtree.mutation_lat_p999_us", us(quantile(all, 0.999)))
}

// dynStateLayers reports the logarithmic method's state after the churn,
// and what the same live set costs to query when bulk-loaded fresh.
func dynStateLayers(res *result, c *churn, v visits, rects []geom.Rect, fps []fingerprint) {
	levels := 0
	for _, n := range c.d.LevelSizes() {
		if n > 0 {
			levels++
		}
	}
	res.layer("logmethod.levels_live", float64(levels))
	res.layer("logmethod.buffer_len", float64(c.d.BufferLen()))
	v.report(res, "logmethod")
	rebuilt := prtree.Bulk(c.live, nil)
	res.layer("logmethod.rebuilt_leaf_io_ratio", visitPass(rects, fps, rebuilt.Fanout(), func(q geom.Rect) (int, int, int) {
		var st prtree.QueryStats
		rebuilt.Count(prtree.Window(q).WithStats(&st))
		return st.LeavesVisited, st.NodesVisited, st.InternalVisited
	}).ratio())

	cs := c.d.CompactionStats()
	res.layer("compact.merges_completed", float64(cs.MergesCompleted))
	res.layer("compact.merges_aborted", float64(cs.MergesAborted))
	res.layer("compact.pages_rewritten", float64(cs.PagesRewritten))
	res.layer("compact.write_amp", cs.WriteAmplification)
}
