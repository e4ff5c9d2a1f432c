package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/zoo"
)

// Network faults are the wire-level complement of storage.Faulty:
// deterministic, countable, and aimed at the server's connection handling
// rather than its disks. A faultyListener wraps a net.Listener so every
// accepted connection injects the configured fault on its write side: the
// server under test is on the other end of these connections, so wrapping
// a client's connection in a faultyConn torments the server's reads, while
// wrapping the server's listener torments its writes and the client's
// reads.

// netFaultMode selects what a faulty connection does when its trigger
// fires.
type netFaultMode int

const (
	// netFaultReset closes the connection abruptly on the triggering
	// write — the client sees a mid-conversation reset.
	netFaultReset netFaultMode = iota
	// netFaultTorn writes half of the triggering frame and closes: the
	// peer reads a length prefix whose payload never fully arrives.
	netFaultTorn
	// netFaultDrip writes one byte at a time with a delay between bytes
	// from the trigger on — the classic slow loris. A server-side read
	// deadline starves it out.
	netFaultDrip
)

func (m netFaultMode) String() string {
	return [...]string{"reset", "torn", "drip"}[m]
}

// netFault configures a faultyListener.
type netFault struct {
	mode netFaultMode
	// after is the number of counted writes across all connections
	// between firings: a response is one write, or one per chunk when its
	// frame is longer than chunkBytes. Reset and torn fire periodically —
	// on the after+1-th write and every after+1 writes after that — so a
	// chaos run suffers a bounded, nonzero failure rate instead of one
	// blip or total loss. Drip latches: from the after+1-th write on, the
	// connection drips every write.
	after int64
	// once fires reset or torn on the after+1-th write only.
	once bool
	// drip is the pause between dripped bytes.
	drip time.Duration
}

// faultyListener injects its fault into every accepted connection. All of
// them share one write counter, so "the 100th response frame this server
// sends" is a single deterministic trigger regardless of connection count.
type faultyListener struct {
	net.Listener
	fault  netFault
	writes atomic.Int64
	fired  atomic.Bool
}

func (l *faultyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &faultyConn{Conn: conn, lis: l}, nil
}

// faultyConn injects its listener's fault into Write. Reads pass through:
// the interesting failures for a server are on its response path, and a
// drip models the peer producing slowly.
type faultyConn struct {
	net.Conn
	lis    *faultyListener
	sticky atomic.Bool // drip latched for this conn
}

func (c *faultyConn) Write(p []byte) (int, error) {
	l := c.lis
	n := l.writes.Add(1)
	period := max(l.fault.after+1, 1)
	fire := n%period == 0
	if l.fault.once {
		fire = n == period
	}
	if l.fault.mode == netFaultDrip {
		fire = c.sticky.Load() || n >= period
	}
	if !fire {
		return c.Conn.Write(p)
	}
	l.fired.Store(true)
	switch l.fault.mode {
	case netFaultReset:
		c.Conn.Close()
		return 0, errors.New("serve: injected connection reset")
	case netFaultTorn:
		written, _ := c.Conn.Write(p[:len(p)/2])
		c.Conn.Close()
		return written, errors.New("serve: injected torn frame")
	}
	c.sticky.Store(true)
	for i := range p {
		if _, err := c.Conn.Write(p[i : i+1]); err != nil {
			return i, err
		}
		time.Sleep(l.fault.drip)
	}
	return len(p), nil
}

// startFaultServer serves items as a healthy two-shard set on a loopback
// listener, optionally wrapped (faultyListener), and tears everything down
// with the test.
func startFaultServer(t *testing.T, items []geom.Item, cfg Config, wrap func(net.Listener) net.Listener) (string, *Server) {
	t.Helper()
	set := buildSet(t, items, 2)
	cfg.Set = set
	srv := New(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	if wrap != nil {
		lis = wrap(lis)
	}
	go srv.ServeBinary(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return addr, srv
}

// oneWindow runs a single window request on a fresh connection.
func oneWindow(addr string, w geom.Rect) error {
	cl, err := Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	_, err = cl.Do(Request{Op: OpWindow, Rect: w})
	return err
}

// TestFaultyListenerPeriodic: with the server's listener injecting
// periodic resets or torn response frames, individual requests fail with
// transport errors but the server survives — fresh connections keep
// getting correct answers between firings, and a write cut short is not a
// malformed frame. A frame longer than a chunk is several writes: torn
// after its first chunk, the client reads a length prefix whose payload
// stops short, and the next connection gets the whole answer.
func TestFaultyListenerPeriodic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		items []geom.Item
		fault netFault
	}{
		{"reset", dataset.Western(2000, 3), netFault{mode: netFaultReset, after: 4}},
		{"torn", dataset.Western(2000, 3), netFault{mode: netFaultTorn, after: 4}},
		// 4,320 items, so a world window's frame is three chunks; the first
		// request's second write is torn.
		{"torn-after-first-chunk", dataset.Western(6000, 3), netFault{mode: netFaultTorn, after: 1, once: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var flis *faultyListener
			addr, srv := startFaultServer(t, tc.items, Config{}, func(l net.Listener) net.Listener {
				flis = &faultyListener{Listener: l, fault: tc.fault}
				return flis
			})
			world := srv.cfg.Set.MBR()
			want := zoo.Expect(tc.items, zoo.Query{Kind: zoo.Window, Rect: world}).Items()
			window := func() error {
				cl, err := Dial(addr)
				if err != nil {
					return err
				}
				defer cl.Close()
				res, err := cl.Do(Request{Op: OpWindow, Rect: world})
				if err != nil {
					return err
				}
				if len(res.Sets) != 1 || !slices.Equal(res.Sets[0], want) {
					t.Fatalf("a request the fault missed: %d sets, not the oracle's %d items", len(res.Sets), len(want))
				}
				return nil
			}

			var ok, failed int
			var okAfterFail bool
			for i := 0; i < 40; i++ {
				if err := window(); err != nil {
					failed++
					if tc.fault.once && !errors.Is(err, ErrTornFrame) {
						t.Fatalf("request %d: %v; want a torn frame", i, err)
					}
				} else {
					ok++
					if failed > 0 {
						okAfterFail = true
					}
				}
			}
			if !flis.fired.Load() {
				t.Fatal("fault never fired")
			}
			if failed == 0 {
				t.Fatal("no request saw the injected fault")
			}
			if tc.fault.once && (failed != 1 || len(want)*itemBytes <= chunkBytes) {
				t.Fatalf("%d requests failed, answers of %d items; want only the one torn, across chunks", failed, len(want))
			}
			if !okAfterFail {
				t.Fatalf("no request succeeded after a fault (ok=%d failed=%d)", ok, failed)
			}
			if got := srv.Statsz().MalformedFrames; got != 0 {
				t.Fatalf("%d malformed frames; a write cut short is not one", got)
			}
		})
	}
}

// TestSlowLorisReaped: a client that sends a partial frame header and
// stalls is cut off by the per-connection read deadline instead of
// pinning a handler goroutine forever, and the stall is accounted as a
// malformed frame. The server keeps serving well-formed clients.
func TestSlowLorisReaped(t *testing.T) {
	addr, srv := startFaultServer(t, dataset.Western(2000, 3), Config{ConnTimeout: 100 * time.Millisecond}, nil)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 0}); err != nil { // half a length prefix, then silence
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a half-written frame header")
	} else if isTimeout(err) {
		t.Fatal("server never closed the stalled connection")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled connection lingered %v", elapsed)
	}
	if got := srv.Statsz().MalformedFrames; got < 1 {
		t.Fatalf("malformed frames %d, want >= 1", got)
	}
	if err := oneWindow(addr, srv.cfg.Set.MBR()); err != nil {
		t.Fatalf("well-formed request after the slow loris: %v", err)
	}
}

// TestDripRequestReaped: a client dripping its request one byte per 50ms
// (through a faultyConn) can never finish a frame inside the 100ms conn
// deadline; the server drops it.
func TestDripRequestReaped(t *testing.T) {
	addr, srv := startFaultServer(t, dataset.Western(2000, 3), Config{ConnTimeout: 100 * time.Millisecond}, nil)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := &faultyConn{Conn: raw, lis: &faultyListener{fault: netFault{mode: netFaultDrip, drip: 50 * time.Millisecond}}}
	defer conn.Close()

	req, err := EncodeRequest(nil, Request{Op: OpWindow, Rect: srv.cfg.Set.MBR()})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- WriteFrame(conn, req) }()

	// The read unblocks when the server gives up on us; a full response
	// to a frame it cannot have received would be a bug.
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(raw); err != nil && isTimeout(err) {
		t.Fatal("server never dropped the dripping connection")
	}
	select {
	case <-errc: // the drip write fails or finishes once the conn drops
	case <-time.After(10 * time.Second):
		t.Fatal("drip write never unblocked")
	}
}

// TestMalformedFrameAccounted: a syntactically complete frame with a
// garbage payload or a retired point or batch request, or a header
// claiming more than MaxRequestFrame bytes, earns one CodeBadRequest
// response and a malformed-frame count, then the connection closes — not
// a crash, a silent drop or an allocation of what the header claims.
func TestMalformedFrameAccounted(t *testing.T) {
	addr, srv := startFaultServer(t, dataset.Western(2000, 3), Config{}, nil)
	cases := map[string][]byte{
		"garbage payload":           {0, 0, 0, 2, 0xFF, 0xEE},
		"retired point op":          append(binary.BigEndian.AppendUint32(nil, uint32(len(retiredPointRequest))), retiredPointRequest...),
		"retired batch op":          append(binary.BigEndian.AppendUint32(nil, uint32(len(retiredBatchRequest))), retiredBatchRequest...),
		"header claiming 513 bytes": binary.BigEndian.AppendUint32(nil, MaxRequestFrame+1),
		"header claiming 1 MiB":     binary.BigEndian.AppendUint32(nil, 1<<20),
	}
	for name, wire := range cases {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(conn, MaxResponseFrame)
		if err != nil {
			t.Fatalf("%s: reading error response: %v", name, err)
		}
		if _, err := DecodeResponse(payload); err == nil {
			t.Fatalf("%s: got an ok response", name)
		} else if re, ok := err.(*RemoteError); !ok || re.Code != CodeBadRequest {
			t.Fatalf("%s: got %v, want RemoteError CodeBadRequest", name, err)
		}
		if _, err := ReadFrame(conn, MaxResponseFrame); err != io.EOF {
			t.Fatalf("%s: got %v after the error response, want the connection closed", name, err)
		}
	}
	if got := srv.Statsz().MalformedFrames; got < uint64(len(cases)) {
		t.Fatalf("malformed frames %d, want >= %d", got, len(cases))
	}
}
