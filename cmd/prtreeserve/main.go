// Command prtreeserve serves a sharded PR-tree index directory (built by
// prtool shard) over the network: queries on a length-prefixed binary
// protocol on -bind, and an HTTP admin listener on -http (/healthz,
// /statsz), with per-tenant admission control, per-request deadlines and
// graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	prtool shard -in roads.bin -out roads.shards -shards 8
//	prtreeserve -shards roads.shards -bind :9045 -http :9046 \
//	            -cache 65536 -tenantcap 256 \
//	            -deadline 2s -maxdeadline 30s
//
// A query runs on every shard in turn, on its connection's goroutine, and
// the shards' answers are merged into a deterministic order; results are
// bit-identical to the same dataset served from one tree. Every merged
// answer — window, containment or k-NN — streams to the client in chunks
// of at most 64 KiB, so a request in flight holds a legs buffer with its
// gathered answer and at most one chunk, never a response frame as large
// as the answer, and no memory stays with an idle connection. A shard that fails mid-query (backend
// error, checksum mismatch) is quarantined instead of failing the query:
// responses degrade to the healthy subset (and say so), and a background
// supervisor reopens, scrubs and restores the shard, with up to 5 reopen
// attempts backing off from 100ms and doubling up to 10s before it declares
// the shard failed. GET /statsz reports pager and IO counters,
// per-shard health and per-endpoint latency histograms; GET /healthz is
// the readiness probe (ok / degraded / 503 down-or-draining). The admin
// listener stays up through a drain and closes last.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"prtree/internal/serve"
)

var (
	shards       = flag.String("shards", "", "sharded index directory (required; see prtool shard)")
	bind         = flag.String("bind", "127.0.0.1:9045", "binary-protocol listen address")
	httpBind     = flag.String("http", "127.0.0.1:9046", "admin listener: /healthz, /statsz (empty disables)")
	cache        = flag.Int("cache", 0, "global page-cache budget in pages, split across shards (0 = unbounded; a positive budget needs at least one page per shard)")
	tenantCap    = flag.Int("tenantcap", 0, "per-tenant in-flight request cap (0 = unlimited)")
	deadline     = flag.Duration("deadline", 0, "default per-request deadline for requests that carry none (0 = none)")
	maxDeadline  = flag.Duration("maxdeadline", 0, "clamp on client-supplied deadlines (0 = no clamp)")
	connTimeout  = flag.Duration("conntimeout", 0, "per-connection frame read/write deadline, the slow-loris guard (0 = none)")
	drainTimeout = flag.Duration("draintimeout", 30*time.Second, "how long graceful drain waits for in-flight requests")
)

func main() {
	flag.Parse()

	if *shards == "" {
		fmt.Fprintln(os.Stderr, "prtreeserve: -shards is required (build one with prtool shard)")
		os.Exit(2)
	}
	set, err := serve.Open(*shards, serve.OpenOptions{CachePages: *cache})
	if err != nil {
		fatal(err)
	}
	defer set.Close()

	srv := serve.New(serve.Config{
		Set:             set,
		TenantCap:       *tenantCap,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		ConnTimeout:     *connTimeout,
	})

	var wg sync.WaitGroup
	serveOn := func(name string, run func(net.Listener) error, lis net.Listener) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(lis); err != nil {
				fmt.Fprintf(os.Stderr, "prtreeserve: %s listener: %v\n", name, err)
			}
		}()
	}

	// The drain handler goes in before any listener exists: a probe can see
	// "healthy" only after this point, so a SIGTERM sent the moment it does
	// is queued for the drain below instead of killing the process undrained.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	blis, err := net.Listen("tcp", *bind)
	if err != nil {
		fatal(err)
	}
	serveOn("binary", srv.ServeBinary, blis)
	httpAddr := ""
	if *httpBind != "" {
		hlis, err := net.Listen("tcp", *httpBind)
		if err != nil {
			fatal(err)
		}
		httpAddr = hlis.Addr().String()
		serveOn("http", srv.ServeWeb, hlis)
	}

	fmt.Printf("prtreeserve: serving %d shards (%d items) from %s\n", set.Shards(), set.Len(), *shards)
	fmt.Printf("prtreeserve: binary %s  http %s\n", blis.Addr(), orNone(httpAddr))

	got := <-sig
	fmt.Printf("prtreeserve: %v — draining (in-flight requests finish, new ones rejected)\n", got)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "prtreeserve: drain: %v\n", err)
		os.Exit(1)
	}
	wg.Wait()
	if err := set.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("prtreeserve: drained cleanly")
}

func orNone(s string) string {
	if s == "" {
		return "(disabled)"
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prtreeserve:", err)
	os.Exit(1)
}
