package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/workload"
)

// testServer builds a small sharded set and a Server over it. The binary
// listener is started on a loopback port; the caller gets its address.
func testServer(t *testing.T, cfg Config) (*Server, *Set, string) {
	t.Helper()
	cfg.Set = buildSet(t, dataset.Western(2000, 17), 3)
	srv, addr := serveSet(t, cfg)
	return srv, cfg.Set, addr
}

// serveSet starts a Server over cfg.Set on a loopback port and returns it
// and the binary listener's address; the test's cleanup drains it.
func serveSet(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeBinary(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("ServeBinary returned %v after drain", err)
		}
	})
	return srv, lis.Addr().String()
}

func TestAdmissionUnit(t *testing.T) {
	a := newAdmission(2)
	if err := a.acquire("t1"); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire("t1"); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire("t1"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third acquire: got %v, want ErrOverloaded", err)
	}
	// Caps are per tenant; the anonymous tenant shares one bucket.
	if err := a.acquire("t2"); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
	if err := a.acquire(""); err != nil {
		t.Fatalf("anonymous: %v", err)
	}
	if err := a.acquire("default"); err != nil {
		t.Fatalf("default: %v", err)
	}
	if err := a.acquire(""); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("anonymous and \"default\" should share a bucket: got %v", err)
	}
	a.release("t1")
	if err := a.acquire("t1"); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if a.rejectedCount() != 2 {
		t.Errorf("rejected %d, want 2", a.rejectedCount())
	}
}

// TestAdmissionCapE2E holds one request in flight and checks the second
// same-tenant request is rejected with CodeOverloaded over the wire while
// another tenant still gets through.
func TestAdmissionCapE2E(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, set, addr := testServer(t, Config{TenantCap: 1})
	srv.testHook = func(req Request) {
		if req.Tenant == "slow" {
			entered <- struct{}{}
			<-release
		}
	}

	world := set.MBR()
	first := make(chan error, 1)
	go func() {
		cl, err := Dial(addr)
		if err != nil {
			first <- err
			return
		}
		defer cl.Close()
		_, err = cl.Do(Request{Op: OpWindow, Tenant: "slow", Rect: world})
		first <- err
	}()
	<-entered

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Do(Request{Op: OpWindow, Tenant: "slow", Rect: world})
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != CodeOverloaded {
		t.Fatalf("same tenant beyond cap: got %v, want CodeOverloaded", err)
	}
	if _, err := cl.Do(Request{Op: OpWindow, Tenant: "other", Rect: world}); err != nil {
		t.Fatalf("other tenant: %v", err)
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatalf("held request: %v", err)
	}
	if srv.Statsz().Rejected != 1 {
		t.Errorf("rejected = %d, want 1", srv.Statsz().Rejected)
	}
}

// TestDeadlineE2E sends a request whose deadline expires while the test
// hook holds it (the hook runs after the deadline context is armed), so
// the traversal's first poll point aborts with CodeDeadline.
func TestDeadlineE2E(t *testing.T) {
	srv, set, addr := testServer(t, Config{})
	srv.testHook = func(req Request) {
		if req.DeadlineMillis != 0 {
			time.Sleep(time.Duration(req.DeadlineMillis+20) * time.Millisecond)
		}
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	_, err = cl.Do(Request{Op: OpWindow, Rect: set.MBR(), DeadlineMillis: 5})
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != CodeDeadline {
		t.Fatalf("expired deadline: got %v, want CodeDeadline", err)
	}
	// Without a deadline the same query succeeds on the same connection.
	if _, err := cl.Do(Request{Op: OpWindow, Rect: set.MBR()}); err != nil {
		t.Fatalf("no deadline: %v", err)
	}
	if srv.Errors() == 0 {
		t.Error("deadline rejection not counted in Errors()")
	}
}

func TestRequestCtxClamp(t *testing.T) {
	srv := New(Config{DefaultDeadline: 100 * time.Millisecond, MaxDeadline: time.Second})
	check := func(millis uint32, wantLo, wantHi time.Duration) {
		t.Helper()
		ctx, cancel := srv.requestCtx(millis)
		defer cancel()
		dl, ok := ctx.Deadline()
		if !ok {
			t.Fatalf("millis=%d: no deadline", millis)
		}
		left := time.Until(dl)
		if left < wantLo || left > wantHi {
			t.Fatalf("millis=%d: deadline in %v, want [%v, %v]", millis, left, wantLo, wantHi)
		}
	}
	check(0, 50*time.Millisecond, 100*time.Millisecond)        // server default
	check(500, 400*time.Millisecond, 500*time.Millisecond)     // client-chosen
	check(60_000, 900*time.Millisecond, 1000*time.Millisecond) // clamped to max

	// No knobs at all: context has no deadline.
	bare := New(Config{})
	ctx, cancel := bare.requestCtx(0)
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("zero config grew a deadline")
	}
}

// TestGracefulDrain holds a request in flight, starts Shutdown, and
// checks: new requests on open connections get CodeShuttingDown, the
// admin port stays up and reports the drain (/healthz 503 "draining",
// /statsz "draining": true), the held request still completes — its
// answer, every item, is a frame of three chunks, none of which the drain
// may cut off — Shutdown returns clean, and only then does the admin port
// close.
func TestGracefulDrain(t *testing.T) {
	items := dataset.Western(6000, 17)
	set := buildSet(t, items, 3)
	srv := New(Config{Set: set})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHook = func(req Request) {
		if req.Tenant == "slow" {
			entered <- struct{}{}
			<-release
		}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeBinary(lis) }()
	addr := lis.Addr().String()
	alis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	webDone := make(chan error, 1)
	go func() { webDone <- srv.ServeWeb(alis) }()
	admin := "http://" + alis.Addr().String()
	// Wait until ServeWeb serves: one that first runs after Shutdown has
	// raised the drain flag closes its listener unserved, and the probes
	// during the drain below would find the port refused.
	if resp, err := http.Get(admin + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz before the drain: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	held := make(chan error, 1)
	go func() {
		cl, err := Dial(addr)
		if err != nil {
			held <- err
			return
		}
		defer cl.Close()
		res, err := cl.Do(Request{Op: OpWindow, Tenant: "slow", Rect: set.MBR()})
		if err == nil && (len(res.Sets) != 1 || len(res.Sets[0]) != len(items) || len(items)*itemBytes <= 2*chunkBytes) {
			err = fmt.Errorf("%d sets; want one of all %d items, a frame of three chunks", len(res.Sets), len(items))
		}
		held <- err
	}()
	<-entered

	// A second connection established before the drain begins; a round
	// trip proves the server accepted it (a dial alone could still be
	// sitting in the listen queue when the listener closes).
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Do(Request{Op: OpStats}); err != nil {
		t.Fatal(err)
	}

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- srv.Shutdown(ctx)
	}()
	// Wait until the drain flag is up before probing.
	for !srv.Statsz().Draining {
		time.Sleep(time.Millisecond)
	}

	_, err = cl.Do(Request{Op: OpWindow, Rect: set.MBR()})
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != CodeShuttingDown {
		t.Fatalf("during drain: got %v, want CodeShuttingDown", err)
	}
	resp, err := http.Get(admin + "/healthz")
	if err != nil {
		t.Fatalf("/healthz during drain: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || strings.TrimSpace(string(body)) != "draining" {
		t.Fatalf("/healthz during drain: %d %q, want 503 \"draining\"", resp.StatusCode, body)
	}
	resp, err = http.Get(admin + "/statsz")
	if err != nil {
		t.Fatalf("/statsz during drain: %v", err)
	}
	var sz Statsz
	err = json.NewDecoder(resp.Body).Decode(&sz)
	resp.Body.Close()
	if err != nil || !sz.Draining {
		t.Fatalf("/statsz during drain: draining %v, %v", sz.Draining, err)
	}

	close(release)
	if err := <-held; err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("ServeBinary after drain: %v", err)
	}
	if err := <-webDone; err != nil {
		t.Fatalf("ServeWeb after drain: %v", err)
	}
	if c, err := net.Dial("tcp", alis.Addr().String()); err == nil {
		c.Close()
		t.Fatal("admin port still accepts connections after Shutdown")
	}
	// Idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	// An admin listener handed over after Shutdown is closed, not served.
	late, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeWeb(late); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("ServeWeb after Shutdown: %v, want the draining error", err)
	}
	if c, err := net.Dial("tcp", late.Addr().String()); err == nil {
		c.Close()
		t.Fatal("a listener ServeWeb refused still accepts connections")
	}
}

// TestDrainTimeout checks a request that outlives the drain context makes
// Shutdown report the context error instead of hanging, and still gets
// its answer on its connection once it finishes.
func TestDrainTimeout(t *testing.T) {
	items := dataset.Western(1000, 3)
	set := buildSet(t, items, 2)
	srv := New(Config{Set: set})
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.testHook = func(Request) {
		entered <- struct{}{}
		<-release
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeBinary(lis) }()
	cl, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	held := make(chan error, 1)
	go func() {
		_, err := cl.Do(Request{Op: OpStats})
		held <- err
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	close(release)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if err := <-held; err != nil {
		t.Fatalf("held request: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("ServeBinary after drain: %v", err)
	}
}

// TestBinaryE2E drives every op over real TCP and checks responses match
// direct Set queries.
func TestBinaryE2E(t *testing.T) {
	_, set, addr := testServer(t, Config{})
	ctx := context.Background()
	world := set.MBR()
	windows := workload.Squares(world, 0.01, 4, 3)

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for _, w := range windows {
		res, err := cl.Do(Request{Op: OpWindow, Rect: w})
		if err != nil || len(res.Sets) != 1 {
			t.Fatalf("window: %d sets (%v); want one", len(res.Sets), err)
		}
		want, _, err := set.Window(ctx, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertSameItems(t, "window", res.Sets[0], want)
	}

	res, err := cl.Do(Request{Op: OpNearest, X: 0.5, Y: 0.5, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	gotN := res.Neighbors
	wantN, _, err := set.Nearest(ctx, 0.5, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotN) != len(wantN) {
		t.Fatalf("nearest: %d results, want %d", len(gotN), len(wantN))
	}
	for i := range gotN {
		if gotN[i] != wantN[i] {
			t.Fatalf("nearest %d: %+v, want %+v", i, gotN[i], wantN[i])
		}
	}

	res, err = cl.Do(Request{Op: OpStats})
	if err != nil || res.Stats == nil {
		t.Fatalf("stats: %+v (%v)", res, err)
	}
	if st := res.Stats; st.Shards != 3 || int(st.Items) != set.Len() || st.MBR != world {
		t.Fatalf("stats %+v", st)
	}

	// A window response carries exactly one set.
	for _, w := range windows {
		res, err := cl.Do(Request{Op: OpWindow, Rect: w})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Sets) != 1 {
			t.Fatalf("window: %d sets, want 1", len(res.Sets))
		}
		want, _, err := set.Window(ctx, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertSameItems(t, "window set", res.Sets[0], want)
	}

	// A nearest request's limit caps its answer like a window's: the
	// first Limit neighbors of the unlimited answer.
	five, err := cl.Do(Request{Op: OpNearest, X: 0.5, Y: 0.5, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	two, err := cl.Do(Request{Op: OpNearest, X: 0.5, Y: 0.5, K: 5, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(five.Neighbors) != 5 || !slices.Equal(two.Neighbors, five.Neighbors[:2]) {
		t.Fatalf("nearest K=5 Limit=2: %v; K=5: %v", two.Neighbors, five.Neighbors)
	}

	// k beyond the sanity cap, and a coordinate that is not finite, are bad
	// requests: not a giant allocation, not arbitrary items.
	nan, inf := math.NaN(), math.Inf(1)
	for _, req := range []Request{
		{Op: OpNearest, K: MaxK + 1},
		{Op: OpNearest, X: nan, Y: 0.5, K: 3},
		{Op: OpNearest, X: inf, Y: 0, K: 3},
		{Op: OpNearest, X: 0.5, Y: -inf, K: 3},
		{Op: OpWindow, Rect: geom.Rect{MinX: nan, MinY: 0, MaxX: 1, MaxY: 1}},
		{Op: OpWindow, Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: inf, MaxY: 1}},
		{Op: OpContained, Rect: geom.Rect{MinX: 0, MinY: -inf, MaxX: 1, MaxY: 1}},
		{Op: OpContained, Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: nan}},
	} {
		_, err = cl.Do(req)
		var remote *RemoteError
		if !errors.As(err, &remote) || remote.Code != CodeBadRequest {
			t.Fatalf("%+v: got %v, want CodeBadRequest", req, err)
		}
	}
}

// TestAdminEndpoints drives the admin API: /healthz answers, /statsz
// reflects the binary traffic sent before it, and there is no query route.
func TestAdminEndpoints(t *testing.T) {
	srv, set, addr := testServer(t, Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get("/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Do(Request{Op: OpWindow, Rect: workload.Squares(set.MBR(), 0.01, 1, 5)[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(Request{Op: OpNearest, X: 0.5, Y: 0.5, K: 5}); err != nil {
		t.Fatal(err)
	}

	resp = get("/statsz")
	var sz Statsz
	err = json.NewDecoder(resp.Body).Decode(&sz)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("/statsz: %d, %v", resp.StatusCode, err)
	}
	if sz.Shards != 3 || sz.Items != set.Len() || sz.Served == 0 {
		t.Fatalf("statsz %+v", sz)
	}
	for _, ep := range []string{"window", "nearest"} {
		if st, ok := sz.Endpoints[ep]; !ok || st.Count == 0 {
			t.Fatalf("no %s endpoint stats: %+v", ep, sz.Endpoints)
		}
	}
	// The runtime record is the process's own: heap in use, and a GC
	// counter that a forced cycle moves.
	if sz.Runtime.HeapBytes == 0 {
		t.Fatalf("statsz runtime %+v: no heap bytes", sz.Runtime)
	}
	runtime.GC()
	if after := srv.Statsz().Runtime.GCCycles; after <= sz.Runtime.GCCycles {
		t.Fatalf("statsz gc_cycles %d after a forced GC, %d before", after, sz.Runtime.GCCycles)
	}

	resp = get("/query?op=window&rect=0,0,1,1")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/query: %d, want 404", resp.StatusCode)
	}
}

func TestHistogram(t *testing.T) {
	var h histogram
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		// All mass in one bucket: any quantile lands within its bounds,
		// which grow by 1.5x per bucket.
		if got < time.Millisecond/2 || got > 2*time.Millisecond {
			t.Errorf("q%.2f = %v, want ~1ms", q, got)
		}
	}
	if m := h.Mean(); m != time.Millisecond {
		t.Errorf("mean %v, want 1ms", m)
	}
}

// TestConcurrentLoad smokes the whole stack: eight clients, one
// connection each, 200 windows.
func TestConcurrentLoad(t *testing.T) {
	srv, set, addr := testServer(t, Config{TenantCap: 64})
	rects := workload.Squares(set.MBR(), 0.005, 16, 13)
	res := driveWindows(addr, nil, 8, 200, "load", rects, nil)
	if res.errors != 0 || res.requests != 200 {
		t.Fatalf("%d load errors in %d requests", res.errors, res.requests)
	}
	if srv.Served() < 200 {
		t.Fatalf("served %d, want >= 200", srv.Served())
	}
}
