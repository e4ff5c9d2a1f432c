package experiments

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/serve"
	"prtree/internal/workload"
)

// serveClientSweep is the concurrency ladder the serve experiment climbs.
var serveClientSweep = []int{1, 4, 16, 64}

// Serve measures the sharded network server end to end: scatter-gather
// window queries over the binary protocol at increasing client
// concurrency, reporting throughput and the exact latency distribution.
//
// By default it builds a 4-shard Hilbert-partitioned index in a temporary
// directory and serves it in-process on a loopback listener; set
// Config.ServeAddr to drive a remote prtreeserve instead (the workload is
// then synthesized from the server's reported world MBR). Either way the
// generator speaks the real wire protocol through real TCP connections —
// one per client goroutine — so the numbers include framing, scheduling
// and admission overhead, not just tree traversal.
func Serve(cfg Config) Table {
	cfg = cfg.normalized()
	t := Table{
		ID:      "serve",
		Title:   "network serving: scatter-gather window queries vs client concurrency",
		Columns: []string{"clients", "requests", "qps", "mean", "p50", "p95", "p99", "errors", "retries", "hedges"},
	}
	failRow := func(lead string) []string {
		return []string{lead, "-", "-", "-", "-", "-", "-", "1", "-", "-"}
	}

	addr := cfg.ServeAddr
	var world geom.Rect
	var cleanup func()
	if addr == "" {
		local, err := startLocalServer(cfg)
		if err != nil {
			t.Notes = fmt.Sprintf("serve experiment failed to start: %v", err)
			t.Rows = append(t.Rows, failRow("-"))
			return t
		}
		addr, world, cleanup = local.addr, local.world, local.cleanup
		t.Notes = fmt.Sprintf("in-process server, 4 hilbert shards, %s items", fmtInt(uint64(local.items)))
	} else {
		cl, err := serve.Dial(addr)
		if err != nil {
			t.Notes = fmt.Sprintf("serve experiment failed to reach %s: %v", addr, err)
			t.Rows = append(t.Rows, failRow("-"))
			return t
		}
		st, err := cl.Stats()
		cl.Close()
		if err != nil {
			t.Notes = fmt.Sprintf("serve experiment failed to query %s: %v", addr, err)
			t.Rows = append(t.Rows, failRow("-"))
			return t
		}
		world = st.MBR
		t.Notes = fmt.Sprintf("remote server %s, %d shards, %s items", addr, st.Shards, fmtInt(st.Items))
	}
	if cleanup != nil {
		defer cleanup()
	}

	// The paper's 1%-area window workload, reused as the serving load.
	rects := workload.Squares(world, 0.01, cfg.Queries, cfg.Seed+77)
	for _, clients := range serveClientSweep {
		requests := clients * 50
		if requests < 200 {
			requests = 200
		}
		res, err := serve.RunLoad(serve.LoadOptions{
			Addr:     addr,
			Clients:  clients,
			Requests: requests,
			Rects:    rects,
			// The robust client (retries + circuit breaker, no hedging:
			// it would double-count latency samples under full load) is
			// what production callers run, so measure through it.
			Robust: &serve.RobustOptions{},
		})
		if err != nil {
			t.Rows = append(t.Rows, failRow(fmt.Sprintf("%d", clients)))
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", res.Clients),
			fmt.Sprintf("%d", res.Requests),
			fmt.Sprintf("%.0f", res.QPS),
			fmtLatency(res.Mean),
			fmtLatency(res.P50),
			fmtLatency(res.P95),
			fmtLatency(res.P99),
			fmt.Sprintf("%d", res.Errors),
			fmt.Sprintf("%d", res.Retries),
			fmt.Sprintf("%d", res.Hedges),
		})
	}
	return t
}

// localServer is an in-process sharded server the experiment stood up.
type localServer struct {
	addr    string
	world   geom.Rect
	items   int
	cleanup func()
}

// startLocalServer shards a fresh dataset into a temporary directory and
// serves it on a loopback listener. The cleanup function drains the
// server and removes the directory.
func startLocalServer(cfg Config) (*localServer, error) {
	dir, err := os.MkdirTemp("", "prtree-serve-exp-*")
	if err != nil {
		return nil, err
	}
	fail := func(e error) (*localServer, error) {
		os.RemoveAll(dir)
		return nil, e
	}

	items := dataset.Western(cfg.n(60000), cfg.Seed)
	world := geom.ItemsMBR(items)
	if _, err := serve.Build(dir, items, serve.BuildOptions{
		Shards:      4,
		MemoryItems: cfg.MemoryItems,
		Parallelism: cfg.Workers,
	}); err != nil {
		return fail(err)
	}
	set, err := serve.Open(dir, serve.OpenOptions{})
	if err != nil {
		return fail(err)
	}
	srv := serve.New(serve.Config{Set: set})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		set.Close()
		return fail(err)
	}
	go srv.ServeBinary(lis)
	cleanup := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		set.Close()
		os.RemoveAll(dir)
	}
	return &localServer{addr: lis.Addr().String(), world: world, items: len(items), cleanup: cleanup}, nil
}

func fmtLatency(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
