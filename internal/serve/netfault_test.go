package serve

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"prtree/internal/dataset"
	"prtree/internal/geom"
)

// startFaultServer serves a small healthy set on a loopback listener,
// optionally wrapped (FaultyListener), and tears everything down with the
// test.
func startFaultServer(t *testing.T, cfg Config, wrap func(net.Listener) net.Listener) (string, *Server) {
	t.Helper()
	items := dataset.Western(2000, 3)
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
// getting correct answers between firings.
func TestFaultyListenerPeriodic(t *testing.T) {
	for _, mode := range []NetFaultMode{NetFaultReset, NetFaultTorn} {
		t.Run(mode.String(), func(t *testing.T) {
			var flis *FaultyListener
			addr, srv := startFaultServer(t, Config{}, func(l net.Listener) net.Listener {
				flis = NewFaultyListener(l, NetFault{Mode: mode, After: 4})
				return flis
			})
			world := srv.cfg.Set.MBR()

			var ok, failed int
			var okAfterFail bool
			for i := 0; i < 40; i++ {
				if err := oneWindow(addr, world); err != nil {
					failed++
				} else {
					ok++
					if failed > 0 {
						okAfterFail = true
					}
				}
			}
			if !flis.Fired() {
				t.Fatal("fault never fired")
			}
			if failed == 0 {
				t.Fatal("no request saw the injected fault")
			}
			if !okAfterFail {
				t.Fatalf("no request succeeded after a fault (ok=%d failed=%d)", ok, failed)
			}
		})
	}
}

// TestSlowLorisReaped: a client that sends a partial frame header and
// stalls is cut off by the per-connection read deadline instead of
// pinning a handler goroutine forever, and the stall is accounted as a
// malformed frame. The server keeps serving well-formed clients.
func TestSlowLorisReaped(t *testing.T) {
	addr, srv := startFaultServer(t, Config{ConnTimeout: 100 * time.Millisecond}, nil)

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
// (via NewFaultyConn) can never finish a frame inside the 100ms conn
// deadline; the server drops it.
func TestDripRequestReaped(t *testing.T) {
	addr, srv := startFaultServer(t, Config{ConnTimeout: 100 * time.Millisecond}, nil)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := NewFaultyConn(raw, NetFault{Mode: NetFaultDrip, Stall: 50 * time.Millisecond})
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
	addr, srv := startFaultServer(t, Config{}, nil)
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
