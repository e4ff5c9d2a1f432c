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

// RobustOptions tunes a RobustClient. The zero value retries up to 3
// times with 10ms initial backoff.
type RobustOptions struct {
	// Addr is the server's binary-protocol address.
	Addr string
	// MaxRetries caps retry attempts after the first (default 3; negative
	// disables retries).
	MaxRetries int
	// RetryBackoff is the initial retry delay (default 10ms), doubled per
	// attempt with jitter up to RetryMaxBackoff (default 1s).
	RetryBackoff    time.Duration
	RetryMaxBackoff time.Duration

	// BreakerThreshold is the consecutive transport-failure count that
	// opens the per-address circuit breaker (default 5; negative
	// disables). While open, Do fails fast with ErrBreakerOpen until
	// BreakerCooldown (default 1s) passes; then one probe request is
	// allowed through — success closes the breaker, failure reopens it.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// maxIdleConns bounds a RobustClient's pool of idle connections.
const maxIdleConns = 8

func (o RobustOptions) normalized() RobustOptions {
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 10 * time.Millisecond
	}
	if o.RetryMaxBackoff <= 0 {
		o.RetryMaxBackoff = time.Second
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	return o
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
	opt RobustOptions

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
	return &RobustClient{opt: opt.normalized()}
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
	return Dial(rc.opt.Addr)
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
	if rc.opt.BreakerThreshold < 0 {
		return true
	}
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
	if rc.opt.BreakerThreshold < 0 {
		return
	}
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
	if b.fails >= rc.opt.BreakerThreshold {
		if b.openUntil.IsZero() {
			rc.breakerOpens.Add(1)
		}
		b.openUntil = time.Now().Add(rc.opt.BreakerCooldown)
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
	backoff := rc.opt.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if !rc.allow() {
			rc.breakerDenied.Add(1)
			err := fmt.Errorf("%w: %s", ErrBreakerOpen, rc.opt.Addr)
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
		if !retryable(err) || attempt >= rc.opt.MaxRetries {
			return Result{}, err
		}
		d := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		if !budget.IsZero() && time.Now().Add(d).After(budget) {
			return Result{}, fmt.Errorf("serve: deadline budget exhausted after %d attempts: %w", attempt+1, err)
		}
		time.Sleep(d)
		rc.retries.Add(1)
		backoff *= 2
		if backoff > rc.opt.RetryMaxBackoff {
			backoff = rc.opt.RetryMaxBackoff
		}
	}
}
