package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prtree/internal/geom"
)

// MaxK caps the k of one nearest request; larger values are rejected as
// bad requests instead of sizing a server-side heap from attacker input.
const MaxK = 1 << 16

// Config tunes a Server. The zero value serves with no admission cap and
// no deadlines; production deployments should set all three knobs.
type Config struct {
	// Set is the sharded index to serve (required).
	Set *Set
	// TenantCap is the per-tenant in-flight request cap; <= 0 disables
	// admission control. The cap is fixed for the server's life. Requests
	// beyond it are rejected with CodeOverloaded without touching the
	// trees.
	TenantCap int
	// DefaultDeadline applies to requests that carry none; 0 means no
	// implicit deadline.
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-supplied deadlines; 0 means no clamp.
	MaxDeadline time.Duration
	// ConnTimeout bounds how long one binary connection may sit between
	// frames, and how long one response write may take — the slow-loris
	// guard. 0 means no per-connection deadlines.
	ConnTimeout time.Duration
}

// Server answers queries over a Set on the binary protocol (ServeBinary)
// and serves its admin endpoints, /healthz and /statsz, over HTTP
// (ServeWeb / Handler). Every request passes admission control, runs
// under its deadline context (polled by the query executor at node-visit
// granularity), and lands in per-endpoint latency histograms exposed at
// /statsz. Shutdown drains gracefully: in-flight requests finish, new
// ones are rejected with CodeShuttingDown, and the admin endpoints answer
// until the drain is over.
type Server struct {
	cfg Config
	adm *admission

	mu        sync.Mutex
	draining  bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	https     []*http.Server

	inflight sync.WaitGroup // decoded requests being served
	connWG   sync.WaitGroup // binary connection handler goroutines

	start     time.Time
	served    atomic.Uint64
	errCount  atomic.Uint64
	degraded  atomic.Uint64 // responses missing at least one shard
	malformed atomic.Uint64 // frames that failed to parse
	metricsMu sync.RWMutex
	metrics   map[string]*endpointMetrics

	// testHook, when set by tests, runs inside every admitted request
	// before the query executes — the seam for forcing slow requests.
	testHook func(req Request)
}

// endpointMetrics is one endpoint's counters.
type endpointMetrics struct {
	hist   histogram
	count  atomic.Uint64
	errors atomic.Uint64
}

// New returns a server over cfg.Set.
func New(cfg Config) *Server {
	return &Server{
		cfg:       cfg,
		adm:       newAdmission(cfg.TenantCap),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		start:     time.Now(),
		metrics:   make(map[string]*endpointMetrics),
	}
}

// Errors returns the cumulative count of error responses.
func (s *Server) Errors() uint64 { return s.errCount.Load() }

// Served returns the cumulative count of admitted requests.
func (s *Server) Served() uint64 { return s.served.Load() }

// Degraded returns the cumulative count of responses missing at least one
// shard.
func (s *Server) Degraded() uint64 { return s.degraded.Load() }

// opName maps protocol ops onto /statsz endpoint names.
func opName(op byte) string {
	switch op {
	case OpWindow:
		return "window"
	case OpContained:
		return "contained"
	case OpNearest:
		return "nearest"
	case OpStats:
		return "stats"
	}
	return fmt.Sprintf("op%d", op)
}

func (s *Server) endpoint(name string) *endpointMetrics {
	s.metricsMu.RLock()
	m := s.metrics[name]
	s.metricsMu.RUnlock()
	if m != nil {
		return m
	}
	s.metricsMu.Lock()
	defer s.metricsMu.Unlock()
	if m = s.metrics[name]; m == nil {
		m = &endpointMetrics{}
		s.metrics[name] = m
	}
	return m
}

// begin admits one request into the in-flight set unless draining.
func (s *Server) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) end() { s.inflight.Done() }

// requestCtx builds the request's deadline context: the client's deadline
// (clamped to MaxDeadline) or the server default when the client sent
// none. The cancel func must always be called.
func (s *Server) requestCtx(deadlineMillis uint32) (context.Context, context.CancelFunc) {
	d := time.Duration(deadlineMillis) * time.Millisecond
	if d == 0 {
		d = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (d == 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	if d <= 0 {
		return context.WithCancel(context.Background())
	}
	return context.WithTimeout(context.Background(), d)
}

// dispatchResult is the transport-independent outcome of one request.
type dispatchResult struct {
	sets   [][]geom.Item
	nbs    []Neighbor
	stats  *WireStats
	failed []uint32 // shards missing from a degraded result
	code   uint16   // 0 = ok
	msg    string
}

// errResult builds an error outcome.
func errResult(code uint16, msg string) dispatchResult {
	return dispatchResult{code: code, msg: msg}
}

// dispatch runs one decoded, in-flight request end to end: admission,
// deadline, scatter-gather, metrics.
func (s *Server) dispatch(req Request) dispatchResult {
	if err := s.adm.acquire(req.Tenant); err != nil {
		s.errCount.Add(1)
		return errResult(CodeOverloaded, err.Error())
	}
	defer s.adm.release(req.Tenant)
	s.served.Add(1)
	ctx, cancel := s.requestCtx(req.DeadlineMillis)
	defer cancel()
	if s.testHook != nil {
		s.testHook(req)
	}

	m := s.endpoint(opName(req.Op))
	m.count.Add(1)
	start := time.Now()
	out, err := s.runQuery(ctx, req)
	m.hist.Observe(time.Since(start))
	if err != nil {
		m.errors.Add(1)
		s.errCount.Add(1)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return errResult(CodeDeadline, "deadline exceeded")
		case errors.Is(err, context.Canceled):
			return errResult(CodeDeadline, "canceled")
		case errors.Is(err, ErrBadFrame), errors.Is(err, errBadRequest):
			return errResult(CodeBadRequest, err.Error())
		case errors.Is(err, ErrUnavailable):
			return errResult(CodeUnavailable, err.Error())
		default:
			return errResult(CodeInternal, err.Error())
		}
	}
	if len(out.failed) > 0 {
		s.degraded.Add(1)
	}
	return out
}

// errBadRequest marks semantic request errors (valid frame, bad values).
var errBadRequest = errors.New("serve: bad request")

// runQuery executes the op against the set. A degraded scatter-gather
// (some shards quarantined mid-query) is a success whose failed slice
// names the missing shards, not an error.
func (s *Server) runQuery(ctx context.Context, req Request) (dispatchResult, error) {
	set := s.cfg.Set
	limit := int(req.Limit)
	// A NaN compares false with everything and every distance to an
	// infinity ties: a traversal would answer either with arbitrary items.
	for _, v := range [...]float64{req.Rect.MinX, req.Rect.MinY, req.Rect.MaxX, req.Rect.MaxY, req.X, req.Y} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return dispatchResult{}, fmt.Errorf("%w: non-finite coordinate %v", errBadRequest, v)
		}
	}
	switch req.Op {
	case OpWindow:
		items, p, err := set.Window(ctx, req.Rect, limit)
		return dispatchResult{sets: [][]geom.Item{items}, failed: p.Failed}, err
	case OpContained:
		items, p, err := set.Contained(ctx, req.Rect, limit)
		return dispatchResult{sets: [][]geom.Item{items}, failed: p.Failed}, err
	case OpNearest:
		if req.K > MaxK {
			return dispatchResult{}, fmt.Errorf("%w: k=%d exceeds %d", errBadRequest, req.K, MaxK)
		}
		k := int(req.K)
		if limit > 0 {
			k = min(k, limit)
		}
		nbs, p, err := set.Nearest(ctx, req.X, req.Y, k)
		return dispatchResult{nbs: nbs, failed: p.Failed}, err
	case OpStats:
		return dispatchResult{stats: &WireStats{
			Shards: uint32(set.Shards()),
			Items:  uint64(set.Len()),
			MBR:    set.MBR(),
		}}, nil
	}
	return dispatchResult{}, fmt.Errorf("%w: unknown op %d", errBadRequest, req.Op)
}

// --- binary transport -----------------------------------------------------

// ServeBinary accepts length-prefixed-protocol connections on lis until
// Shutdown closes it. It always returns after the listener closes; a nil
// error means a clean drain.
func (s *Server) ServeBinary(lis net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		lis.Close()
		return fmt.Errorf("serve: server is draining")
	}
	s.listeners[lis] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, lis)
		s.mu.Unlock()
	}()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.connWG.Done()
			s.handleConn(conn)
		}()
	}
}

// handleConn serves one binary connection: one request frame in, one
// response frame out, strictly in order. With Config.ConnTimeout set,
// every frame read and every response write runs under a conn deadline,
// so a peer that stalls mid-frame or drips bytes (slow loris) is cut off
// instead of pinning a goroutine and a socket forever.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var buf []byte
	for {
		if s.cfg.ConnTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ConnTimeout))
		}
		payload, err := ReadFrame(br, MaxRequestFrame)
		if err != nil {
			// EOF and torn frames mean the peer is gone; an oversized
			// frame gets one error response before the connection drops
			// (the stream position is unrecoverable either way).
			if errors.Is(err, ErrTornFrame) {
				s.malformed.Add(1)
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTornFrame) {
				if !errors.Is(err, net.ErrClosed) && !isTimeout(err) {
					s.malformed.Add(1)
				}
				s.errCount.Add(1)
				buf = AppendErrResponse(buf[:0], 0, CodeBadRequest, err.Error())
				if s.cfg.ConnTimeout > 0 {
					conn.SetWriteDeadline(time.Now().Add(s.cfg.ConnTimeout))
				}
				if WriteFrame(bw, buf) == nil {
					bw.Flush()
				}
			}
			return
		}
		req, err := DecodeRequest(payload)
		if err != nil {
			s.malformed.Add(1)
			s.errCount.Add(1)
			buf = AppendErrResponse(buf[:0], 0, CodeBadRequest, err.Error())
			if s.cfg.ConnTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(s.cfg.ConnTimeout))
			}
			if WriteFrame(bw, buf) == nil {
				bw.Flush()
			}
			return
		}
		if buf, err = s.respond(conn, bw, buf, req); err != nil {
			return
		}
	}
}

// respond serves one decoded request and writes its response frame; a
// draining server answers CodeShuttingDown. The request stays in flight
// until the frame is flushed: Shutdown cuts every connection the moment
// nothing is in flight, and a response still in the write buffer at that
// moment would reach the client torn.
func (s *Server) respond(conn net.Conn, bw *bufio.Writer, buf []byte, req Request) ([]byte, error) {
	out := errResult(CodeShuttingDown, "server is draining")
	if s.begin() {
		defer s.end()
		out = s.dispatch(req)
	}
	if out.code != 0 {
		buf = AppendErrResponse(buf[:0], req.Op, out.code, out.msg)
	} else {
		buf = AppendOKResponse(buf[:0], req.Op, out.failed, out.sets, out.nbs, out.stats)
	}
	if s.cfg.ConnTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.ConnTimeout))
	}
	if err := WriteFrame(bw, buf); err != nil {
		return buf, err
	}
	return buf, bw.Flush()
}

// isTimeout reports whether err is a net timeout (an expired conn
// deadline), which is the peer being slow, not a malformed frame.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// --- admin listener -------------------------------------------------------

// ServeWeb serves the admin endpoints (Handler) on lis until Shutdown,
// which closes it only after the binary requests have drained. A nil
// error means a clean drain.
func (s *Server) ServeWeb(lis net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		lis.Close()
		return fmt.Errorf("serve: server is draining")
	}
	s.https = append(s.https, srv)
	s.mu.Unlock()
	err := srv.Serve(lis)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Handler returns the admin API: /healthz (503 "draining" during a drain,
// 503 when every shard is down) and /statsz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		health := HealthOK
		if set := s.cfg.Set; set != nil {
			health = set.Health()
		}
		switch health {
		case HealthDown:
			// Down is a 503 so load balancers pull the instance; degraded
			// stays 200 — partial answers beat none, and /statsz names the
			// quarantined shards.
			http.Error(w, health.String(), http.StatusServiceUnavailable)
		default:
			fmt.Fprintln(w, health)
		}
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Statsz())
	})
	return mux
}

// --- statsz ---------------------------------------------------------------

// EndpointStats is one endpoint's /statsz record.
type EndpointStats struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// ShardStatsz is one shard's /statsz record.
type ShardStatsz struct {
	File        string `json:"file"`
	State       string `json:"state"`
	Errors      uint64 `json:"errors"`
	Quarantines uint64 `json:"quarantines"`
	Recoveries  uint64 `json:"recoveries"`
	Attempts    uint64 `json:"recovery_attempts"`
	LastError   string `json:"last_error,omitempty"`

	// Storage epoch state (epoch-pinned page reclamation): the current
	// snapshot epoch, readers holding snapshots, and freed pages pinned
	// until those readers drain.
	SnapshotEpoch   uint64 `json:"snapshot_epoch"`
	SnapshotReaders int    `json:"snapshot_readers"`
	PinnedPages     int    `json:"pinned_pages"`
}

// Statsz is the /statsz document: server, shard, IO/cache and per-endpoint
// latency counters.
type Statsz struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Health        string  `json:"health"`
	Shards        int     `json:"shards"`
	Healthy       int     `json:"healthy_shards"`
	Items         int     `json:"items"`

	Served          uint64 `json:"served"`
	Errors          uint64 `json:"errors"`
	Rejected        uint64 `json:"rejected"`
	Degraded        uint64 `json:"degraded"`
	MalformedFrames uint64 `json:"malformed_frames"`

	ShardDetail []ShardStatsz `json:"shard_detail,omitempty"`

	// The three prefetch fields below read 0 (the speculative read tier is
	// gone); they stay because the benchmark harness decodes them.
	IO struct {
		Reads         uint64 `json:"reads"`
		Writes        uint64 `json:"writes"`
		PrefetchReads uint64 `json:"prefetch_reads"`
	} `json:"io"`
	Cache struct {
		Hits           uint64  `json:"hits"`
		Misses         uint64  `json:"misses"`
		Evictions      uint64  `json:"evictions"`
		HitRate        float64 `json:"hit_rate"`
		Resident       int     `json:"resident"`
		Capacity       int     `json:"capacity"`
		PrefetchIssued uint64  `json:"prefetch_issued"`
		PrefetchUsed   uint64  `json:"prefetch_used"`
	} `json:"cache"`
	Admission struct {
		TenantCap int `json:"tenant_cap"`
	} `json:"admission"`

	Endpoints map[string]EndpointStats `json:"endpoints"`
}

// Statsz snapshots the server's counters; safe during serving.
func (s *Server) Statsz() Statsz {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	st := Statsz{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Draining:        draining,
		Health:          HealthOK.String(),
		Served:          s.served.Load(),
		Errors:          s.errCount.Load(),
		Rejected:        s.adm.rejectedCount(),
		Degraded:        s.degraded.Load(),
		MalformedFrames: s.malformed.Load(),
		Endpoints:       make(map[string]EndpointStats),
	}
	st.Admission.TenantCap = s.adm.capNow()
	if set := s.cfg.Set; set != nil {
		ss := set.Stats()
		st.Health = set.Health().String()
		st.Shards, st.Healthy, st.Items = ss.Shards, ss.Healthy, ss.Items
		for _, sd := range ss.Status {
			st.ShardDetail = append(st.ShardDetail, ShardStatsz{
				File:            sd.File,
				State:           sd.State.String(),
				Errors:          sd.Errors,
				Quarantines:     sd.Quarantines,
				Recoveries:      sd.Recoveries,
				Attempts:        sd.Attempts,
				LastError:       sd.LastErr,
				SnapshotEpoch:   sd.Snapshot.Epoch,
				SnapshotReaders: sd.Snapshot.Readers,
				PinnedPages:     sd.Snapshot.PinnedPages,
			})
		}
		st.IO.Reads, st.IO.Writes = ss.IO.Reads, ss.IO.Writes
		st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions = ss.Cache.Hits, ss.Cache.Misses, ss.Cache.Evictions
		st.Cache.HitRate = ss.Cache.HitRatio()
		st.Cache.Resident, st.Cache.Capacity = ss.Cache.Resident, ss.Cache.Capacity
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	s.metricsMu.RLock()
	names := make([]string, 0, len(s.metrics))
	for name := range s.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := s.metrics[name]
		st.Endpoints[name] = EndpointStats{
			Count:  m.count.Load(),
			Errors: m.errors.Load(),
			MeanMS: ms(m.hist.Mean()),
			P50MS:  ms(m.hist.Quantile(0.50)),
			P95MS:  ms(m.hist.Quantile(0.95)),
			P99MS:  ms(m.hist.Quantile(0.99)),
		}
	}
	s.metricsMu.RUnlock()
	return st
}

// --- drain ----------------------------------------------------------------

// Shutdown drains the server: the binary listeners close, requests
// already being served run to completion (bounded by ctx), new requests
// are rejected with CodeShuttingDown, and idle connections are cut. The
// admin listeners close last, so /healthz reports the drain while it
// runs. It is idempotent; the first caller does the work. The Set itself
// is not closed — that stays with the caller.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	listeners := make([]net.Listener, 0, len(s.listeners))
	for lis := range s.listeners {
		listeners = append(listeners, lis)
	}
	https := append([]*http.Server(nil), s.https...)
	s.mu.Unlock()

	for _, lis := range listeners {
		lis.Close()
	}
	// Wait for in-flight requests, then cut idle connections so their
	// handler goroutines unblock from ReadFrame.
	err := waitCtx(ctx, &s.inflight)
	if err == nil {
		s.mu.Lock()
		conns := make([]net.Conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		err = waitCtx(ctx, &s.connWG)
	}
	for _, srv := range https {
		if herr := srv.Shutdown(ctx); herr != nil && err == nil {
			err = herr
		}
	}
	return err
}

// waitCtx waits on wg, bounded by ctx.
func waitCtx(ctx context.Context, wg *sync.WaitGroup) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
