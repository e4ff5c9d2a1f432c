package serve

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prtree"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/storage"
)

// goroutineDump returns every goroutine's stack, as a panic prints them.
func goroutineDump() string {
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 2)
	return buf.String()
}

// noGoroutineIn fails the test if a goroutine is running fn now: what a
// Close or Shutdown waits out must be gone when it returns.
func noGoroutineIn(t *testing.T, fn string) {
	t.Helper()
	if dump := goroutineDump(); strings.Contains(dump, fn) {
		t.Errorf("a goroutine in %s outlived the call that waits for it:\n%s", fn, dump)
	}
}

// goroutinesSettle fails the test unless the goroutine count is back at
// baseline within the deadline.
func goroutinesSettle(t *testing.T, baseline int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines %v after close, %d before open:\n%s", n, within, baseline, goroutineDump())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSetCloseLeavesNoGoroutine: Close of a set whose shards are all
// quarantined, each with its recovery supervisor running — its first
// reopen failed, and it waits out its backoff for the next — waits the
// supervisors out, and the goroutine count returns to where it was before
// Open. With no tree left to close, Close itself never blocks, so on one P
// a supervisor it did not wait for has not even run when it returns.
func TestSetCloseLeavesNoGoroutine(t *testing.T) {
	items := dataset.Western(1200, 21)
	dir := buildDir(t, items, 3)
	baseline := runtime.NumGoroutine()

	opt := OpenOptions{backoff: backoff{first: 20 * time.Millisecond, max: time.Minute}}
	// Every shard fails its third read, and every reopen its first.
	opt.wrapShard = func(idx, attempt int, b prtree.Backend) prtree.Backend {
		after := int64(3)
		if attempt > 0 {
			after = 1
		}
		f := storage.NewFaulty(b, storage.FaultError, after)
		f.InjectReads(true)
		return f
	}
	set, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	// Over every shard at once: every one is quarantined, whatever the
	// answer.
	set.Window(context.Background(), geom.ItemsMBR(items), 0)
	// Stats reads each shard under the lock a reopen holds, so once every
	// shard counts an attempt, the next Stats returns after all of them
	// failed.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		done := true
		for _, st := range set.Stats().Status {
			done = done && st.Attempts > 0
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("supervisors made no reopen attempt: %+v", set.Stats().Status)
		}
	}
	for i, st := range set.Stats().Status {
		if st.State != ShardQuarantined {
			t.Fatalf("shard %d is %v after a failed reopen, want quarantined", i, st.State)
		}
	}
	// On one P nothing else runs until the test blocks.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	noGoroutineIn(t, "serve.(*Set).supervise")
	goroutinesSettle(t, baseline, time.Second)
}

// slowCloseListener hands out connections whose second Close — the one a
// connection handler defers after Shutdown cut its connection with the
// first — takes a while, so a handler Shutdown does not wait for is still
// running when it returns.
type slowCloseListener struct{ net.Listener }

func (l slowCloseListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &slowCloseConn{Conn: c}, nil
}

type slowCloseConn struct {
	net.Conn
	closes atomic.Int32
}

func (c *slowCloseConn) Close() error {
	if c.closes.Add(1) > 1 {
		time.Sleep(100 * time.Millisecond)
		return nil
	}
	return c.Conn.Close()
}

// TestServerShutdownLeavesNoGoroutine: Shutdown with idle binary
// connections open cuts them and waits their handlers out; once the
// clients and the set are closed too, the goroutine count returns to
// where it was before Open.
func TestServerShutdownLeavesNoGoroutine(t *testing.T) {
	items := dataset.Western(2000, 17)
	dir := buildDir(t, items, 3)
	baseline := runtime.NumGoroutine()

	set, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	srv := New(Config{Set: set})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeBinary(slowCloseListener{lis}) }()
	var clients []*Client
	for range 8 {
		cl, err := Dial(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		// A round trip proves the server accepted the connection.
		if _, err := cl.Do(Request{Op: OpStats}); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	noGoroutineIn(t, "serve.(*Server).handleConn")
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	for _, cl := range clients {
		cl.Close()
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	goroutinesSettle(t, baseline, time.Second)
}
