package serve

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"prtree/internal/geom"
)

// startFakeFrameServer runs a minimal binary-protocol peer whose behavior
// per request is fully scripted: handle receives each decoded request and
// returns the raw response payload to frame back. Each connection gets
// its own goroutine, so a handler that stalls blocks only its own conn —
// exactly what hedging needs to race around.
func startFakeFrameServer(t *testing.T, handle func(Request) []byte) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					payload, err := ReadFrame(conn, MaxRequestFrame)
					if err != nil {
						return
					}
					req, err := DecodeRequest(payload)
					if err != nil {
						return
					}
					if err := WriteFrame(conn, handle(req)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return lis.Addr().String()
}

func fastRetry(addr string) RobustOptions {
	return RobustOptions{
		Addr:            addr,
		RetryBackoff:    time.Millisecond,
		RetryMaxBackoff: 5 * time.Millisecond,
	}
}

// TestRobustRetriesOverload: CodeOverloaded rejections are retried with
// backoff until the server admits the request, and each extra attempt is
// counted.
func TestRobustRetriesOverload(t *testing.T) {
	var calls atomic.Int64
	addr := startFakeFrameServer(t, func(req Request) []byte {
		if calls.Add(1) <= 2 {
			return AppendErrResponse(nil, req.Op, CodeOverloaded, "per-tenant cap reached")
		}
		return AppendOKResponse(nil, req.Op, nil, [][]geom.Item{{}}, nil, nil)
	})
	rc := DialRobust(fastRetry(addr))
	defer rc.Close()

	res, err := rc.Do(Request{Op: OpWindow})
	if err != nil {
		t.Fatalf("overloaded-then-ok request failed: %v", err)
	}
	if res.Degraded() {
		t.Fatal("complete response reported degraded")
	}
	if got := rc.Counters().Retries; got != 2 {
		t.Fatalf("retries %d, want 2", got)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d requests, want 3", calls.Load())
	}
}

// TestRobustNoRetryOnDegradedOrBadRequest: a degraded success IS a
// success, and a non-overload server error is final — neither may burn
// retries (retrying against degraded infrastructure adds load exactly
// when the serving side can least afford it).
func TestRobustNoRetryOnDegradedOrBadRequest(t *testing.T) {
	var calls atomic.Int64
	addr := startFakeFrameServer(t, func(req Request) []byte {
		calls.Add(1)
		if req.Tenant == "bad" {
			return AppendErrResponse(nil, req.Op, CodeBadRequest, "nope")
		}
		// Degraded but answered.
		return AppendOKResponse(nil, req.Op, []uint32{1}, [][]geom.Item{{{ID: 7}}}, nil, nil)
	})
	rc := DialRobust(fastRetry(addr))
	defer rc.Close()

	res, err := rc.Do(Request{Op: OpWindow})
	if err != nil {
		t.Fatalf("degraded response surfaced as error: %v", err)
	}
	if !res.Degraded() || len(res.FailedShards) != 1 || res.FailedShards[0] != 1 {
		t.Fatalf("failed shards %v, want [1]", res.FailedShards)
	}

	_, err = rc.Do(Request{Op: OpWindow, Tenant: "bad"})
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != CodeBadRequest {
		t.Fatalf("got %v, want RemoteError CodeBadRequest", err)
	}
	if got := rc.Counters().Retries; got != 0 {
		t.Fatalf("retries %d, want 0", got)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d requests, want 2 (no retries)", calls.Load())
	}
}

// TestRobustBreaker: consecutive transport failures open the per-address
// breaker (fast-failing further requests), a cooldown probe against a
// healed server closes it, and every transition is counted.
func TestRobustBreaker(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	var healthy atomic.Bool
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			if !healthy.Load() {
				conn.Close() // hang up before answering: transport failure
				continue
			}
			go func() {
				defer conn.Close()
				for {
					payload, err := ReadFrame(conn, MaxRequestFrame)
					if err != nil {
						return
					}
					req, _ := DecodeRequest(payload)
					if WriteFrame(conn, AppendOKResponse(nil, req.Op, nil, [][]geom.Item{{}}, nil, nil)) != nil {
						return
					}
				}
			}()
		}
	}()

	opt := fastRetry(lis.Addr().String())
	opt.MaxRetries = -1 // one attempt per Do: transitions stay countable
	opt.BreakerThreshold = 3
	opt.BreakerCooldown = 20 * time.Millisecond
	rc := DialRobust(opt)
	defer rc.Close()

	for i := 0; i < 3; i++ {
		if _, err := rc.Do(Request{Op: OpWindow}); err == nil {
			t.Fatalf("request %d against a hanging-up server succeeded", i)
		} else if errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("request %d denied before the threshold", i)
		}
	}
	if _, err := rc.Do(Request{Op: OpWindow}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("got %v, want ErrBreakerOpen after %d failures", err, opt.BreakerThreshold)
	}
	c := rc.Counters()
	if c.BreakerOpens != 1 || c.BreakerDenied != 1 {
		t.Fatalf("counters %+v, want 1 open and 1 denial", c)
	}

	// Heal the server; after the cooldown one probe goes through, closes
	// the breaker, and traffic flows again.
	healthy.Store(true)
	time.Sleep(opt.BreakerCooldown + 5*time.Millisecond)
	if _, err := rc.Do(Request{Op: OpWindow}); err != nil {
		t.Fatalf("probe after cooldown failed: %v", err)
	}
	if _, err := rc.Do(Request{Op: OpWindow}); err != nil {
		t.Fatalf("request after the breaker closed failed: %v", err)
	}
}
