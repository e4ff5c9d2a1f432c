package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBreakerOpen is the typed fast-fail for a tripped circuit breaker:
// the address failed enough consecutive transport attempts that the
// client refuses to touch it until the cooldown allows a probe.
var ErrBreakerOpen = errors.New("serve: circuit breaker open")

// RobustOptions tunes a RobustClient. The zero value retries up to 3
// times with 10ms initial backoff and no hedging.
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

	// Hedge enables hedged reads: when a request has been in flight
	// longer than the client's observed p99, a second identical request
	// races it on a fresh connection and the first response wins. Only
	// idempotent reads go through RobustClient, so hedging is always
	// safe here.
	Hedge bool
	// HedgeAfterMin is the minimum latency-sample count before hedging
	// arms (default 32) — hedging off a cold p99 estimate would fire on
	// everything.
	HedgeAfterMin int

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
	if o.HedgeAfterMin <= 0 {
		o.HedgeAfterMin = 32
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
	Retries       uint64 // attempts after the first, per request
	Hedges        uint64 // hedge requests launched
	HedgeWins     uint64 // requests where the hedge answered first
	BreakerOpens  uint64 // closed → open transitions
	BreakerDenied uint64 // requests failed fast with ErrBreakerOpen
}

// latRing is a fixed-size ring of latency samples for the hedge-delay
// estimate. Writes are mutex-held; p99 sorts a copy.
type latRing struct {
	mu      sync.Mutex
	samples [256]time.Duration
	n       int // total observed (ring index = n % len)
}

func (l *latRing) observe(d time.Duration) {
	l.mu.Lock()
	l.samples[l.n%len(l.samples)] = d
	l.n++
	l.mu.Unlock()
}

// p99 returns the ring's 99th percentile and the total sample count.
func (l *latRing) p99() (time.Duration, int) {
	l.mu.Lock()
	n := l.n
	size := n
	if size > len(l.samples) {
		size = len(l.samples)
	}
	buf := make([]time.Duration, size)
	copy(buf, l.samples[:size])
	l.mu.Unlock()
	if size == 0 {
		return 0, 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return quantile(buf, 0.99), n
}

// quantile returns the q-th quantile of sorted (nearest-rank method).
func quantile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(idx, len(sorted)-1))]
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

// RobustClient is a retrying, hedging, circuit-breaking front over the
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

	lat latRing
	brk breaker

	retries       atomic.Uint64
	hedges        atomic.Uint64
	hedgeWins     atomic.Uint64
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
		Hedges:        rc.hedges.Load(),
		HedgeWins:     rc.hedgeWins.Load(),
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

// attemptOut is one attempt's outcome, raced by hedged legs.
type attemptOut struct {
	res Result
	err error
	// answered marks a server response (success or RemoteError): the
	// authoritative outcome that wins the hedge race. Transport errors
	// are not answers — the other leg may still produce one.
	answered bool
}

// attempt runs req once on a pooled connection.
func (rc *RobustClient) attempt(req Request) attemptOut {
	cl, err := rc.getConn()
	if err != nil {
		rc.reportTransport(false)
		return attemptOut{err: err}
	}
	t0 := time.Now()
	res, err := cl.Do(req)
	if err != nil {
		var remote *RemoteError
		if errors.As(err, &remote) {
			// The server answered; the connection is still framed.
			rc.reportTransport(true)
			rc.putConn(cl)
			return attemptOut{err: err, answered: true}
		}
		rc.reportTransport(false)
		cl.Close()
		return attemptOut{err: err}
	}
	rc.lat.observe(time.Since(t0))
	rc.reportTransport(true)
	rc.putConn(cl)
	return attemptOut{res: res, answered: true}
}

// hedgeDelay returns the delay before a hedge fires, or 0 if hedging is
// not armed (disabled, or not enough samples yet).
func (rc *RobustClient) hedgeDelay() time.Duration {
	if !rc.opt.Hedge {
		return 0
	}
	p99, n := rc.lat.p99()
	if n < rc.opt.HedgeAfterMin || p99 <= 0 {
		return 0
	}
	return p99
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

// Do runs req with retries, hedging and the circuit breaker. The request
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
		out := rc.race(req)
		if out.err == nil {
			return out.res, nil
		}
		lastErr = out.err
		if out.answered && !retryable(out.err) {
			return Result{}, out.err
		}
		if !retryable(out.err) || attempt >= rc.opt.MaxRetries {
			return Result{}, out.err
		}
		d := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		if !budget.IsZero() && time.Now().Add(d).After(budget) {
			return Result{}, fmt.Errorf("serve: deadline budget exhausted after %d attempts: %w", attempt+1, out.err)
		}
		time.Sleep(d)
		rc.retries.Add(1)
		backoff *= 2
		if backoff > rc.opt.RetryMaxBackoff {
			backoff = rc.opt.RetryMaxBackoff
		}
	}
}

// race runs one attempt, hedged with a second identical request when the
// first is slower than the client's observed p99. The first server
// response wins; a pure transport error on one leg waits for the other.
func (rc *RobustClient) race(req Request) attemptOut {
	delay := rc.hedgeDelay()
	if delay <= 0 {
		return rc.attempt(req)
	}
	primary := make(chan attemptOut, 1)
	go func() { primary <- rc.attempt(req) }()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var hedge chan attemptOut
	var timerC <-chan time.Time = timer.C
	var firstErr *attemptOut
	for {
		select {
		case out := <-primary:
			if out.answered || hedge == nil {
				return out
			}
			// Transport failure; the hedge may still answer.
			primary = nil
			if firstErr != nil {
				return out
			}
			firstErr = &out
		case out := <-hedge:
			if out.answered {
				rc.hedgeWins.Add(1)
				return out
			}
			hedge = nil
			if firstErr != nil {
				return out
			}
			firstErr = &out
		case <-timerC:
			timerC = nil
			rc.hedges.Add(1)
			hedge = make(chan attemptOut, 1)
			go func() { hedge <- rc.attempt(req) }()
		}
	}
}
