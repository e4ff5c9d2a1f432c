package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"prtree"
	"prtree/internal/geom"
	"prtree/internal/serve"
)

// serveParams distinguishes the two served workloads: the same server and
// data, queried with tiny windows (framing, fan-out and the round trip do
// the work) or with large ones (merge, encode/decode and leaf scans do).
type serveParams struct {
	name   string
	area   float64 // window area as a share of the world
	pool   int     // distinct windows
	segOps int     // operations per segment, ≈1 s on the seed code
	sample int     // windows replayed through the in-process layer probes
}

var (
	serveSmall = serveParams{name: "serve-small", area: 0.0001, pool: 4096, segOps: 16000, sample: 1024}
	serveLarge = serveParams{name: "serve-large", area: 0.0025, pool: 4096, segOps: 4800, sample: 256}
)

// Operation-number bases keep the phases of one run on disjoint inputs.
const (
	baseWarmup uint64 = iota << 32
	baseMeasured
	baseTraced
	basePlain
)

func runServe(r *run, res *result, p serveParams) error {
	cfg := r.cfg
	bin, err := buildServer(cfg.root, r.tmp)
	if err != nil {
		return err
	}
	dir := filepath.Join(r.tmp, p.name)

	// Set-up, repeated: generate, shard and bulk-load, start the server,
	// wait until it is healthy. The last one is measured against.
	var (
		items      []geom.Item
		man        *serve.Manifest
		srv        *server
		setups     []float64
		shardBuild float64
	)
	stop := func() error {
		if srv == nil {
			return nil
		}
		s := srv
		srv = nil
		defer r.setLive(nil)
		return s.stop()
	}
	defer func() {
		if srv != nil {
			srv.kill()
			r.setLive(nil)
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if err := stop(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		t0 := time.Now()
		items = generateItems(cfg.items())
		t1 := time.Now()
		man, err = serve.Build(dir, items, serve.BuildOptions{Loader: prtree.PR, Parallelism: r.procs})
		if err != nil {
			return err
		}
		shardBuild = time.Since(t1).Seconds()
		srv, err = startServer(bin, dir)
		if err != nil {
			return err
		}
		r.setLive(srv)
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.e2e("setup_s", setups...)

	rects := windows(mbrOf(items), p.area, cfg.ops(p.pool), cfg.seed+1)
	segOps := cfg.ops(p.segOps)
	res.Counts["items"], res.Counts["distinct_rects"], res.Counts["segment_ops"] = len(items), len(rects), segOps

	clients := make([]*serve.RobustClient, callers)
	for c := range clients {
		clients[c] = serve.DialRobust(serve.RobustOptions{Addr: srv.binary})
		defer clients[c].Close()
	}
	robust := doFunc(func(c int, req serve.Request) (serve.Result, error) { return clients[c].Do(req) })

	// Full verification, outside any timed path.
	fps, bad, err := verifyAll(items, rects, callers, func(w int, q geom.Rect) ([]geom.Item, error) {
		out, err := robust(w, serve.Request{Op: serve.OpWindow, Rect: q})
		if err != nil {
			return nil, err
		}
		if out.Degraded() || len(out.Sets) != 1 {
			return nil, fmt.Errorf("degraded or malformed answer")
		}
		return out.Sets[0], nil
	})
	if err != nil {
		return err
	}
	res.count(int64(len(rects)), int64(bad))

	load := &servedLoad{srv: srv, seed: uint64(cfg.seed), rects: rects, fps: fps, segOps: segOps}
	warm := runSegment(callers, segOps/2+1, baseWarmup, load.op(robust, nil))
	res.count(int64(len(warm.lat)), int64(warm.failed))
	st0, err := srv.statsz()
	if err != nil {
		return err
	}

	measured := runPhase(cfg.seconds, callers, segOps, baseMeasured, load.op(robust, nil), nil)
	res.count(measured.ops())
	res.timing(measured, measured)

	var tr *tracer
	if cfg.trace {
		tr = newTracer(callers)
		if err := serveNetworkLayers(cfg, res, load, clients, st0, warm, measured, tr); err != nil {
			return err
		}
	}

	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	res.e2e("peak_rss_mb", rss)
	if err := stop(); err != nil {
		return err
	}

	var bytes int64
	paths := make([]string, len(man.Shards))
	for i, sh := range man.Shards {
		paths[i] = filepath.Join(dir, sh.File)
		fi, err := os.Stat(paths[i])
		if err != nil {
			return err
		}
		bytes += fi.Size()
	}
	res.e2e("space_amp", float64(bytes)/float64(len(items)*itemBytes))

	// The paper's yardstick over the shard trees, in process: the server
	// has exited, so the files are ours.
	opens := time.Now()
	trees := make([]*prtree.Tree, len(paths))
	for i, path := range paths {
		if trees[i], err = prtree.Open(path, nil); err != nil {
			return err
		}
	}
	openS := time.Since(opens).Seconds()
	closeTrees := func() error {
		for _, t := range trees {
			if err := t.Close(); err != nil {
				return err
			}
		}
		return nil
	}
	visits := visitPass(rects, fps, trees[0].Fanout(), func(q geom.Rect) (leaves, nodes, internal int) {
		for _, t := range trees {
			var st prtree.QueryStats
			t.Count(prtree.Window(q).WithStats(&st))
			leaves, nodes, internal = leaves+st.LeavesVisited, nodes+st.NodesVisited, internal+st.InternalVisited
		}
		return
	})
	res.e2e("leaf_io_ratio", visits.ratio())
	if !cfg.trace {
		return closeTrees()
	}

	visits.report(res, "rtree")
	height, util := 0, 0.0
	for _, t := range trees {
		height = max(height, t.Height())
		leaf, _ := t.Utilization()
		util += leaf / float64(len(trees))
	}
	res.layer("rtree.height", float64(height))
	res.layer("rtree.leaf_utilization", util)
	res.layer("bulk.shard_build_s", shardBuild)
	res.layer("prtree.open_s", openS)

	// One shard leg at a time: the slowest is the critical leg a
	// scatter-gather waits for, the sum is the CPU the fan-out spends.
	sampleN := min(cfg.ops(p.sample), len(rects))
	useful, critical, legSum := 0, make([]float64, sampleN), make([]float64, sampleN)
	for k := 0; k < sampleN; k++ {
		root := tr.begin(0, "replay.legs", -1, int64(k))
		for _, t := range trees {
			if t.MBR().Intersects(rects[k]) {
				useful++
			}
			ref := tr.begin(0, "prtree.collect", root.id, int64(k))
			if _, err := t.Collect(prtree.Window(rects[k])); err != nil {
				return err
			}
			d := us(tr.end(ref))
			critical[k] = max(critical[k], d)
			legSum[k] += d
		}
		tr.end(root)
	}
	res.layer("serve.set.fanout_useful_frac", float64(useful)/float64(sampleN*len(trees)))
	res.layer("prtree.collect_critical_us", critical...)
	res.layer("prtree.collect_sum_us", legSum...)
	t0 := time.Now()
	if err := closeTrees(); err != nil {
		return err
	}
	res.layer("prtree.close_s", time.Since(t0).Seconds())

	if err := serveInProcessLayers(res, dir, rects[:sampleN], critical, tr); err != nil {
		return err
	}
	if err := fileLayers(res, paths); err != nil {
		return err
	}
	if cfg.out != "" {
		return tr.write(cfg.out, p.name)
	}
	return nil
}

// doFunc sends one request on behalf of a caller.
type doFunc func(caller int, req serve.Request) (serve.Result, error)

// servedLoad is what the phases against the live server share.
type servedLoad struct {
	srv    *server
	seed   uint64
	rects  []geom.Rect
	fps    []fingerprint
	segOps int
}

// op draws operation opno's window, sends it with do and checks the
// answer's fingerprint once the clock has stopped.
func (l *servedLoad) op(do doFunc, tr *tracer) opFunc {
	return func(c int, opno uint64) (time.Duration, bool) {
		k := int(mix(l.seed, opno) % uint64(len(l.rects)))
		req := serve.Request{Op: serve.OpWindow, Rect: l.rects[k]}
		ref := tr.begin(c, "serve.client.do", -1, int64(opno))
		t0 := time.Now()
		out, err := do(c, req)
		d := time.Since(t0)
		tr.end(ref)
		return d, err == nil && !out.Degraded() && len(out.Sets) == 1 && fingerprintOf(out.Sets[0]) == l.fps[k]
	}
}

// serveNetworkLayers runs the traced phase and the plain-client phase
// against the live server and reads the layers /statsz exposes.
func serveNetworkLayers(cfg config, res *result, l *servedLoad, clients []*serve.RobustClient, st0 serve.Statsz, warm segment, measured phase, tr *tracer) error {
	srv := l.srv
	robust := doFunc(func(c int, req serve.Request) (serve.Result, error) { return clients[c].Do(req) })
	var st1 serve.Statsz
	var statszErr error
	traced := runPhase(cfg.seconds/2, callers, l.segOps, baseTraced, l.op(robust, tr), func() {
		if st1, statszErr = srv.statsz(); statszErr != nil {
			return
		}
		tr.counter("serve.server.served", float64(st1.Served))
		tr.counter("storage.pager.hits", float64(st1.Cache.Hits))
		tr.counter("storage.pager.misses", float64(st1.Cache.Misses))
		tr.counter("storage.file.block_reads", float64(st1.IO.Reads))
	})
	res.count(traced.ops())
	if statszErr != nil {
		return statszErr
	}

	// The same requests over plain connections: robust − plain is what
	// the retrying client costs when nothing fails.
	plain := make([]*serve.Client, callers)
	for c := range plain {
		cl, err := serve.Dial(srv.binary)
		if err != nil {
			return err
		}
		defer cl.Close()
		plain[c] = cl
	}
	plainPhase := runPhase(0, callers, l.segOps, basePlain, l.op(func(c int, req serve.Request) (serve.Result, error) {
		return plain[c].Do(req)
	}, nil), nil)
	res.count(plainPhase.ops())

	res.layer("serve.client.rtt_mean_us", traced.meanLatency())
	res.layer("serve.client.plain_rtt_mean_us", plainPhase.meanLatency())
	var counters serve.RobustCounters
	for _, cl := range clients {
		c := cl.Counters()
		counters.Retries += c.Retries
		counters.Hedges += c.Hedges
		counters.BreakerOpens += c.BreakerOpens
	}
	res.layer("serve.client.retries", float64(counters.Retries))
	res.layer("serve.client.hedges", float64(counters.Hedges))
	res.layer("serve.client.breaker_opens", float64(counters.BreakerOpens))

	// /statsz quantiles are lifetime values of this server instance, read
	// off a histogram whose buckets grow by 1.5x; the mean is exact.
	ep := st1.Endpoints["window"]
	res.layer("serve.server.handle_mean_us", ep.MeanMS*1e3)
	res.layer("serve.server.handle_p50_us", ep.P50MS*1e3)
	res.layer("serve.server.handle_p99_us", ep.P99MS*1e3)
	res.layer("serve.server.wire_gap_us", res.PerLayer["lat_p50_us"].Value-ep.P50MS*1e3)
	res.layer("serve.server.rejected", float64(st1.Rejected))
	res.layer("serve.server.errors", float64(st1.Errors))
	res.layer("serve.server.degraded", float64(st1.Degraded))

	served := float64(st1.Served - st0.Served)
	hits, misses := float64(st1.Cache.Hits-st0.Cache.Hits), float64(st1.Cache.Misses-st0.Cache.Misses)
	res.layer("storage.pager.hit_ratio", ratio(hits, hits+misses))
	res.layer("storage.pager.misses_per_op", ratio(misses, served))
	res.layer("storage.pager.evictions_per_op", ratio(float64(st1.Cache.Evictions-st0.Cache.Evictions), served))
	res.layer("storage.pager.prefetch_used_frac", ratio(float64(st1.Cache.PrefetchUsed-st0.Cache.PrefetchUsed), float64(st1.Cache.PrefetchIssued-st0.Cache.PrefetchIssued)))
	res.layer("storage.pager.resident_pages", float64(st1.Cache.Resident))
	res.layer("storage.file.block_reads_per_op", ratio(float64(st1.IO.Reads-st0.IO.Reads), served))
	res.layer("storage.file.block_writes_per_op", ratio(float64(st1.IO.Writes-st0.IO.Writes), served))
	res.layer("storage.file.prefetch_reads_per_op", ratio(float64(st1.IO.PrefetchReads-st0.IO.PrefetchReads), served))

	harnessLayers(res, warm, measured, traced)
	return nil
}

// serveInProcessLayers replays the sampled windows through an in-process
// Set and the codec, timing each layer's public entry point.
func serveInProcessLayers(res *result, dir string, rects []geom.Rect, critical []float64, tr *tracer) error {
	t0 := time.Now()
	set, err := serve.Open(dir, serve.OpenOptions{})
	if err != nil {
		return err
	}
	defer set.Close()
	res.layer("prtree.reopen_s", time.Since(t0).Seconds())
	ctx := context.Background()
	for _, q := range rects { // fill the page cache, as the server's was
		if _, _, err := set.Window(ctx, q, 0); err != nil {
			return err
		}
	}

	n := len(rects)
	window, self, results := make([]float64, n), make([]float64, n), 0
	answers := make([][]geom.Item, n)
	payloads := make([][]byte, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k, q := range rects {
		root := tr.begin(0, "replay.request", -1, int64(k))
		ref := tr.begin(0, "serve.set.window", root.id, int64(k))
		items, partial, err := set.Window(ctx, q, 0)
		window[k] = us(tr.end(ref))
		if err != nil || partial.Degraded() {
			return fmt.Errorf("in-process Set.Window: degraded=%v err=%v", partial.Degraded(), err)
		}
		ref = tr.begin(0, "serve.proto.encode_resp", root.id, int64(k))
		payloads[k] = serve.AppendOKResponse(nil, serve.OpWindow, nil, [][]geom.Item{items}, nil, nil)
		tr.end(ref)
		ref = tr.begin(0, "serve.proto.decode_resp", root.id, int64(k))
		_, err = serve.DecodeResponse(payloads[k])
		tr.end(ref)
		if err != nil {
			return err
		}
		tr.end(root)
		answers[k] = items
		results += len(items)
		self[k] = window[k] - critical[k]
	}
	runtime.ReadMemStats(&m1)
	runtimeLayers(res, m0, m1, n)
	res.layer("serve.set.window_us", window...)
	res.layer("serve.set.self_us", self...)
	res.layer("serve.set.results_per_query", float64(results)/float64(n))

	// The codec calls are too short for one clock reading each: time whole
	// passes over the recorded requests and answers.
	reqs := make([][]byte, n)
	for k, q := range rects {
		if reqs[k], err = serve.EncodeRequest(nil, serve.Request{Op: serve.OpWindow, Rect: q}); err != nil {
			return err
		}
	}
	var buf []byte
	batch := func(name string, pass func(k int)) {
		ref := tr.begin(0, strings.TrimSuffix(name, "_ns")+".batch", -1, -1)
		res.layer(name, nsPerCall(n, pass))
		tr.end(ref)
	}
	batch("serve.proto.encode_req_ns", func(k int) {
		buf, _ = serve.EncodeRequest(buf[:0], serve.Request{Op: serve.OpWindow, Rect: rects[k]})
	})
	batch("serve.proto.decode_req_ns", func(k int) { serve.DecodeRequest(reqs[k]) })
	batch("serve.proto.encode_resp_ns", func(k int) {
		buf = serve.AppendOKResponse(buf[:0], serve.OpWindow, nil, [][]geom.Item{answers[k]}, nil, nil)
	})
	batch("serve.proto.decode_resp_ns", func(k int) { serve.DecodeResponse(payloads[k]) })
	total := 0
	for _, p := range payloads {
		total += len(p)
	}
	res.layer("serve.proto.resp_bytes", float64(total)/float64(n))
	return nil
}

// nsPerCall times whole passes of pass(0..n-1) until 50 ms have passed and
// returns nanoseconds per call.
func nsPerCall(n int, pass func(k int)) float64 {
	calls := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for k := 0; k < n; k++ {
			pass(k)
		}
		calls += n
	}
	return float64(time.Since(start)) / float64(calls)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
