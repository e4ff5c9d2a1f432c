package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBreakerOpen is the typed fast-fail for a tripped circuit breaker:
// the address failed enough consecutive transport attempts that the
// client refuses to touch it until the cooldown allows a probe.
var ErrBreakerOpen = errors.New("serve: circuit breaker open")

// The client's retry and breaker policy is fixed.
const (
	// maxRetries caps a request's attempts after its first.
	maxRetries = 3
	// breakerThreshold is the run of consecutive transport failures that
	// opens the circuit breaker. While it is open, Do fails fast with
	// ErrBreakerOpen; after the cool-off one probe goes through, and its
	// success closes the breaker while its failure reopens it.
	breakerThreshold = 5
	// maxIdleConns bounds a RobustClient's pool of idle connections.
	maxIdleConns = 8
)

// retryBackoff spaces a request's retries: 10ms, doubled per retry up to
// 1s. An open breaker fails fast for that longest delay, 1s, and then lets
// one probe through.
var retryBackoff = backoff{first: 10 * time.Millisecond, max: time.Second}

// RobustOptions configures a RobustClient.
type RobustOptions struct {
	// Addr is the server's binary-protocol address.
	Addr string

	// backoff, when set, replaces retryBackoff and with it the breaker's
	// cool-off: the package's tests shorten their waits with it.
	backoff backoff
}

// backoff is a retry loop's delays: the first, doubled after each failed
// attempt up to max, each with up to half again of random jitter so that
// many callers failing at once do not come back in step.
type backoff struct{ first, max time.Duration }

// or returns b, or def when b is unset.
func (b backoff) or(def backoff) backoff {
	if b.first <= 0 {
		return def
	}
	return b
}

// jittered returns d plus up to half of d again at random.
func jittered(d time.Duration) time.Duration {
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// RobustCounters snapshots a RobustClient's resilience counters.
type RobustCounters struct {
	Retries uint64 // attempts after the first, per request
	// Hedges reads 0: the client sends one request at a time. The field
	// stays because the benchmark harness reports it.
	Hedges        uint64
	BreakerOpens  uint64 // closed → open transitions
	BreakerDenied uint64 // requests failed fast with ErrBreakerOpen
}

// breaker is a per-address circuit breaker over consecutive transport
// failures. Server responses — even errors — prove the transport works
// and reset it.
type breaker struct {
	mu        sync.Mutex
	fails     int
	openUntil time.Time
	probing   bool
}

// RobustClient is a retrying, circuit-breaking front over the
// binary protocol. Unlike Client it is safe for concurrent use: requests
// draw connections from a pool, and broken connections are discarded
// instead of poisoning later requests.
//
// Retries apply only to failures that cannot have returned an answer —
// transport errors and CodeOverloaded rejections. A degraded (partial)
// success is a success: retrying it could hide a real infrastructure
// problem behind extra load, exactly when the serving side can least
// afford it.
type RobustClient struct {
	addr    string
	backoff backoff

	poolMu sync.Mutex
	idle   []*Client
	closed bool

	brk breaker

	retries       atomic.Uint64
	breakerOpens  atomic.Uint64
	breakerDenied atomic.Uint64
}

// DialRobust returns a RobustClient for opt.Addr. No connection is opened
// until the first request.
func DialRobust(opt RobustOptions) *RobustClient {
	return &RobustClient{addr: opt.Addr, backoff: opt.backoff.or(retryBackoff)}
}

// Counters snapshots the client's resilience counters.
func (rc *RobustClient) Counters() RobustCounters {
	return RobustCounters{
		Retries:       rc.retries.Load(),
		BreakerOpens:  rc.breakerOpens.Load(),
		BreakerDenied: rc.breakerDenied.Load(),
	}
}

// Close closes every pooled connection; in-flight requests finish on
// their own connections and find the pool closed when they return them.
func (rc *RobustClient) Close() error {
	rc.poolMu.Lock()
	idle := rc.idle
	rc.idle = nil
	rc.closed = true
	rc.poolMu.Unlock()
	for _, cl := range idle {
		cl.Close()
	}
	return nil
}

// getConn pops a pooled connection or dials a fresh one.
func (rc *RobustClient) getConn() (*Client, error) {
	rc.poolMu.Lock()
	if n := len(rc.idle); n > 0 {
		cl := rc.idle[n-1]
		rc.idle = rc.idle[:n-1]
		rc.poolMu.Unlock()
		return cl, nil
	}
	rc.poolMu.Unlock()
	return Dial(rc.addr)
}

// putConn returns a healthy connection to the pool (closing it if the
// pool is full or the client closed).
func (rc *RobustClient) putConn(cl *Client) {
	rc.poolMu.Lock()
	if rc.closed || len(rc.idle) >= maxIdleConns {
		rc.poolMu.Unlock()
		cl.Close()
		return
	}
	rc.idle = append(rc.idle, cl)
	rc.poolMu.Unlock()
}

// allow reports whether the breaker admits a request right now.
func (rc *RobustClient) allow() bool {
	b := &rc.brk
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return true
	}
	if time.Now().Before(b.openUntil) {
		return false
	}
	// Cooldown passed: admit exactly one probe; everyone else keeps
	// failing fast until the probe reports.
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// reportTransport records one attempt's transport outcome. ok covers any
// server response, error responses included — the wire worked.
func (rc *RobustClient) reportTransport(ok bool) {
	b := &rc.brk
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.fails = 0
		b.openUntil = time.Time{}
		return
	}
	b.fails++
	if b.fails >= breakerThreshold {
		if b.openUntil.IsZero() {
			rc.breakerOpens.Add(1)
		}
		b.openUntil = time.Now().Add(rc.backoff.max)
	}
}

// attempt runs req once on a pooled connection.
func (rc *RobustClient) attempt(req Request) (Result, error) {
	cl, err := rc.getConn()
	if err != nil {
		rc.reportTransport(false)
		return Result{}, err
	}
	res, err := cl.Do(req)
	if err != nil {
		var remote *RemoteError
		if errors.As(err, &remote) {
			// The server answered; the connection is still framed.
			rc.reportTransport(true)
			rc.putConn(cl)
			return Result{}, err
		}
		rc.reportTransport(false)
		cl.Close()
		return Result{}, err
	}
	rc.reportTransport(true)
	rc.putConn(cl)
	return res, nil
}

// retryable reports whether err may be retried: transport failures and
// overload rejections, where no answer was (or will be) consumed.
func retryable(err error) bool {
	var remote *RemoteError
	if errors.As(err, &remote) {
		return remote.Code == CodeOverloaded
	}
	return true // transport/framing failure
}

// Do runs req with retries and the circuit breaker. The request
// deadline (DeadlineMillis) bounds the whole call including backoff:
// when the budget is spent, the last error returns rather than another
// retry burning a dead deadline.
func (rc *RobustClient) Do(req Request) (Result, error) {
	var budget time.Time
	if req.DeadlineMillis > 0 {
		budget = time.Now().Add(time.Duration(req.DeadlineMillis) * time.Millisecond)
	}
	delay := rc.backoff.first
	var lastErr error
	for attempt := 0; ; attempt++ {
		if !rc.allow() {
			rc.breakerDenied.Add(1)
			err := fmt.Errorf("%w: %s", ErrBreakerOpen, rc.addr)
			if lastErr != nil {
				err = fmt.Errorf("%w (last error: %v)", ErrBreakerOpen, lastErr)
			}
			return Result{}, err
		}
		res, err := rc.attempt(req)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !retryable(err) || attempt >= maxRetries {
			return Result{}, err
		}
		d := jittered(delay)
		if !budget.IsZero() && time.Now().Add(d).After(budget) {
			return Result{}, fmt.Errorf("serve: deadline budget exhausted after %d attempts: %w", attempt+1, err)
		}
		time.Sleep(d)
		rc.retries.Add(1)
		delay = min(2*delay, rc.backoff.max)
	}
}
