package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"prtree"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/storage"
	"prtree/internal/workload"
)

// TestChaosGate is the CI chaos gate, in-process: one shard's first open
// goes through a read fault that fires after five page reads — past
// Open's root read, early into the load — while the listener periodically resets
// connections, and a robust-client load run must produce ZERO wrong
// results against the oracle — every response is either exact or a
// correctly-flagged degraded subset — with a bounded error rate and
// eventual recovery to full health: the supervisor reopens the shard
// clean, /healthz reads "ok", and the server drains cleanly.
func TestChaosGate(t *testing.T) {
	items := dataset.Western(4000, 99)
	world := geom.ItemsMBR(items)
	dir := buildDir(t, items, 3)

	set, err := Open(dir, OpenOptions{
		RecoveryBackoff:    time.Millisecond,
		RecoveryMaxBackoff: 5 * time.Millisecond,
		wrapShard: func(idx, attempt int, b prtree.Backend) prtree.Backend {
			if idx != 1 || attempt > 0 {
				return b
			}
			f := storage.NewFaulty(b, storage.FaultError, 5)
			f.InjectReads(true)
			return f
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	srv := New(Config{Set: set, ConnTimeout: 2 * time.Second})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	flis := &faultyListener{Listener: lis, fault: netFault{mode: netFaultReset, after: 30}}
	go srv.ServeBinary(flis)
	defer func() { // a no-op once the drain below has run
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	// The workload mixes small windows with the full world (which reads
	// every shard), and the oracle holds each rect's complete answer.
	rects := workload.Squares(world, 0.02, 15, 5)
	rects = append(rects, world)
	oracle := make([][]geom.Item, len(rects))
	for i, r := range rects {
		oracle[i] = bruteWindow(items, r)
	}

	robust := DialRobust(RobustOptions{
		Addr:            addr,
		RetryBackoff:    time.Millisecond,
		RetryMaxBackoff: 10 * time.Millisecond,
	})
	defer robust.Close()
	res := driveWindows(addr, robust, 8, 400, "", rects, oracle)

	// The gate: no response — degraded or not — may contradict the oracle.
	if res.wrong != 0 {
		t.Fatalf("%d wrong results against the oracle", res.wrong)
	}
	// Injected resets and the mid-run quarantine may cost some requests
	// even through retries, but the vast majority must land.
	if res.errors > res.requests/10 {
		t.Fatalf("%d/%d requests failed — unbounded error rate", res.errors, res.requests)
	}
	if !flis.fired.Load() {
		t.Fatal("network fault never fired")
	}

	// The injected storage fault must have tripped quarantine, and the
	// supervisor must bring the shard back.
	waitHealthy(t, set, 5*time.Second)
	sd := set.Stats().Status[1]
	if sd.Quarantines < 1 || sd.Recoveries < 1 {
		t.Fatalf("shard 1 status %+v, want at least one quarantine and one recovery", sd)
	}

	// Post-chaos, the set answers the full world exactly.
	got, p, err := set.Window(context.Background(), world, 0)
	if err != nil || p.Degraded() {
		t.Fatalf("post-chaos window: partial=%v err=%v", p, err)
	}
	assertSameItems(t, "post-chaos", got, bruteWindow(items, world))

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if body := strings.TrimSpace(rec.Body.String()); rec.Code != http.StatusOK || body != "ok" {
		t.Fatalf("post-chaos /healthz: %d %q, want 200 ok", rec.Code, body)
	}

	c := robust.Counters()
	t.Logf("chaos gate: requests=%d errors=%d degraded=%d retries=%d breakerOpens=%d",
		res.requests, res.errors, res.degraded, c.Retries, c.BreakerOpens)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain after chaos: %v", err)
	}
}

// loadResult counts what driveWindows saw.
type loadResult struct {
	requests int // requests sent
	errors   int // transport failures and server error responses
	degraded int // answers missing at least one shard
	wrong    int // answers that contradict the oracle
}

// driveWindows sends requests window queries over rects, round-robin,
// from clients goroutines: through robust when it is non-nil, otherwise
// each goroutine on a Client of its own that it redials after a transport
// failure. When oracle is non-nil (one complete answer per rect) every
// answer is checked against it with answersOracle.
func driveWindows(addr string, robust *RobustClient, clients, requests int, tenant string, rects []geom.Rect, oracle [][]geom.Item) loadResult {
	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var out loadResult
			var cl *Client
			for i := c; i < requests; i += clients {
				ri := i % len(rects)
				req := Request{Op: OpWindow, Rect: rects[ri], Tenant: tenant}
				var r Result
				var err error
				if robust != nil {
					r, err = robust.Do(req)
				} else {
					if cl == nil {
						cl, err = Dial(addr)
					}
					if err == nil {
						r, err = cl.Do(req)
					}
					var remote *RemoteError
					if err != nil && cl != nil && !errors.As(err, &remote) {
						cl.Close()
						cl = nil
					}
				}
				out.requests++
				switch {
				case err != nil:
					out.errors++
					continue
				case oracle != nil && !answersOracle(r, oracle[ri]):
					out.wrong++
				}
				if r.Degraded() {
					out.degraded++
				}
			}
			if cl != nil {
				cl.Close()
			}
			mu.Lock()
			res.requests += out.requests
			res.errors += out.errors
			res.degraded += out.degraded
			res.wrong += out.wrong
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return res
}

// answersOracle checks one window answer against the complete one: a
// complete answer must equal it (same items, same order — both sides use
// the deterministic merge order), a degraded one must be a subset of it
// that names at least one failed shard.
func answersOracle(r Result, want []geom.Item) bool {
	if len(r.Sets) != 1 {
		return false
	}
	got := r.Sets[0]
	if !r.Degraded() {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if len(r.FailedShards) == 0 {
		return false
	}
	// Both sides are in merge order, so one linear pass finds each
	// returned item in the oracle.
	wi := 0
	for _, it := range got {
		for wi < len(want) && want[wi] != it {
			wi++
		}
		if wi == len(want) {
			return false
		}
		wi++
	}
	return true
}
