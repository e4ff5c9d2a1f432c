package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"prtree/internal/dataset"
	"prtree/internal/workload"
)

// testServer builds a small sharded set and a Server over it. The binary
// listener is started on a loopback port; the caller gets its address.
func testServer(t *testing.T, cfg Config) (*Server, *Set, string) {
	t.Helper()
	items := dataset.Western(2000, 17)
	set := buildSet(t, items, 3)
	cfg.Set = set
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
	return srv, set, lis.Addr().String()
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
// checks: new requests on open connections get CodeShuttingDown, the held
// request still completes, and Shutdown returns clean.
func TestGracefulDrain(t *testing.T) {
	items := dataset.Western(2000, 17)
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

	held := make(chan error, 1)
	go func() {
		cl, err := Dial(addr)
		if err != nil {
			held <- err
			return
		}
		defer cl.Close()
		_, err = cl.Do(Request{Op: OpWindow, Tenant: "slow", Rect: set.MBR()})
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
	// Idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestDrainTimeout checks a request that outlives the drain context makes
// Shutdown report the context error instead of hanging.
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
	dispatchDone := make(chan struct{})
	go func() {
		srv.dispatch(Request{Op: OpStats})
		close(dispatchDone)
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := srv.Shutdown(ctx)
	close(release)
	<-dispatchDone
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
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
		got, err := cl.Window(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := set.Window(ctx, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertSameItems(t, "window", got, want)
	}

	gotN, err := cl.Nearest(0.5, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
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

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 3 || int(st.Items) != set.Len() || st.MBR != world {
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

	// k beyond the sanity cap is a bad request, not a giant allocation.
	_, err = cl.Do(Request{Op: OpNearest, K: MaxK + 1})
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != CodeBadRequest {
		t.Fatalf("huge k: got %v, want CodeBadRequest", err)
	}
}

// TestHTTPE2E drives the JSON API: /query, /healthz, /statsz.
func TestHTTPE2E(t *testing.T) {
	srv, set, _ := testServer(t, Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx := context.Background()
	world := set.MBR()
	w0 := workload.Squares(world, 0.01, 1, 5)[0]

	getJSON := func(path string, out interface{}) int {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	if code := getJSON("/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}

	var q struct {
		Count int `json:"count"`
		Items []struct {
			ID   uint32     `json:"id"`
			Rect [4]float64 `json:"rect"`
		} `json:"items"`
	}
	path := fmt.Sprintf("/query?op=window&rect=%s", url.QueryEscape(
		fmt.Sprintf("%v,%v,%v,%v", w0.MinX, w0.MinY, w0.MaxX, w0.MaxY)))
	if code := getJSON(path, &q); code != http.StatusOK {
		t.Fatalf("window: %d", code)
	}
	want, _, err := set.Window(ctx, w0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Count != len(want) || len(q.Items) != len(want) {
		t.Fatalf("window count %d, want %d", q.Count, len(want))
	}
	for i, it := range q.Items {
		if it.ID != want[i].ID {
			t.Fatalf("item %d id %d, want %d", i, it.ID, want[i].ID)
		}
	}

	var nn struct {
		Items []struct {
			ID    uint32   `json:"id"`
			Dist2 *float64 `json:"dist2"`
		} `json:"items"`
	}
	if code := getJSON("/query?op=nearest&x=0.5&y=0.5&k=5", &nn); code != http.StatusOK {
		t.Fatalf("nearest: %d", code)
	}
	wantN, _, err := set.Nearest(ctx, 0.5, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn.Items) != len(wantN) {
		t.Fatalf("nearest %d items, want %d", len(nn.Items), len(wantN))
	}
	for i, it := range nn.Items {
		if it.ID != wantN[i].Item.ID || it.Dist2 == nil || *it.Dist2 != wantN[i].Dist2 {
			t.Fatalf("nearest %d: %+v, want %+v", i, it, wantN[i])
		}
	}

	// Bad requests are 400s.
	for _, p := range []string{"/query?op=window&rect=1,2,3", "/query?op=tango", "/query?op=nearest&x=a&y=0&k=1"} {
		if code := getJSON(p, nil); code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", p, code)
		}
	}

	// /statsz reflects the traffic above.
	var sz Statsz
	if code := getJSON("/statsz", &sz); code != http.StatusOK {
		t.Fatalf("/statsz: %d", code)
	}
	if sz.Shards != 3 || sz.Items != set.Len() || sz.Served == 0 {
		t.Fatalf("statsz %+v", sz)
	}
	wstats, ok := sz.Endpoints["window"]
	if !ok || wstats.Count == 0 {
		t.Fatalf("no window endpoint stats: %+v", sz.Endpoints)
	}
	if _, ok := sz.Endpoints["nearest"]; !ok {
		t.Fatal("no nearest endpoint stats")
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
