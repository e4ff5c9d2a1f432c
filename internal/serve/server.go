package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
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
	// admission control. Requests beyond the cap are rejected with
	// CodeOverloaded (HTTP 429) without touching the trees.
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

// Server serves a Set over the binary protocol (ServeBinary) and HTTP
// (ServeWeb / Handler). Every request passes admission control, runs
// under its deadline context (polled by the query executor at node-visit
// granularity), and lands in per-endpoint latency histograms exposed at
// /statsz. Shutdown drains gracefully: in-flight requests finish, new
// ones are rejected with CodeShuttingDown.
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

// Errors returns the cumulative count of error responses (all transports).
func (s *Server) Errors() uint64 { return s.errCount.Load() }

// Served returns the cumulative count of admitted requests.
func (s *Server) Served() uint64 { return s.served.Load() }

// Degraded returns the cumulative count of responses missing at least one
// shard.
func (s *Server) Degraded() uint64 { return s.degraded.Load() }

// SetTenantCap changes the per-tenant in-flight cap at runtime: < 0
// disables admission, 0 rejects everything, > 0 caps. Requests already in
// flight are unaffected and release correctly under the new cap.
func (s *Server) SetTenantCap(cap int) { s.adm.setCap(cap) }

// opName maps protocol ops onto /statsz endpoint names.
func opName(op byte) string {
	switch op {
	case OpWindow:
		return "window"
	case OpContained:
		return "contained"
	case OpPoint:
		return "point"
	case OpNearest:
		return "nearest"
	case OpBatch:
		return "batch"
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

// dispatch runs one decoded request end to end: drain check, admission,
// deadline, scatter-gather, metrics. Both transports funnel through it.
func (s *Server) dispatch(req Request) dispatchResult {
	if !s.begin() {
		return errResult(CodeShuttingDown, "server is draining")
	}
	defer s.end()
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
	switch req.Op {
	case OpWindow:
		items, p, err := set.Window(ctx, req.Rect, limit)
		return dispatchResult{sets: [][]geom.Item{items}, failed: p.Failed}, err
	case OpContained:
		items, p, err := set.Contained(ctx, req.Rect, limit)
		return dispatchResult{sets: [][]geom.Item{items}, failed: p.Failed}, err
	case OpPoint:
		items, p, err := set.Point(ctx, req.X, req.Y, limit)
		return dispatchResult{sets: [][]geom.Item{items}, failed: p.Failed}, err
	case OpNearest:
		if req.K > MaxK {
			return dispatchResult{}, fmt.Errorf("%w: k=%d exceeds %d", errBadRequest, req.K, MaxK)
		}
		nbs, p, err := set.Nearest(ctx, req.X, req.Y, int(req.K))
		return dispatchResult{nbs: nbs, failed: p.Failed}, err
	case OpBatch:
		sets, p, err := set.Batch(ctx, req.Rects, limit)
		return dispatchResult{sets: sets, failed: p.Failed}, err
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

// respond serves one decoded request and writes its response frame. The
// request stays in flight until the frame is flushed: Shutdown cuts every
// connection the moment nothing is in flight, and a response still in the
// write buffer at that moment would reach the client torn.
func (s *Server) respond(conn net.Conn, bw *bufio.Writer, buf []byte, req Request) ([]byte, error) {
	if s.begin() {
		defer s.end()
	}
	out := s.dispatch(req)
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

// --- HTTP transport -------------------------------------------------------

// ServeWeb serves the HTTP/JSON API on lis until Shutdown. A nil error
// means a clean drain.
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

// httpItem is one item in a JSON response.
type httpItem struct {
	ID   uint32     `json:"id"`
	Rect [4]float64 `json:"rect"`
	// Dist2 is present only on nearest results.
	Dist2 *float64 `json:"dist2,omitempty"`
}

func itemsJSON(items []geom.Item) []httpItem {
	out := make([]httpItem, len(items))
	for i, it := range items {
		out[i] = httpItem{ID: it.ID, Rect: [4]float64{it.Rect.MinX, it.Rect.MinY, it.Rect.MaxX, it.Rect.MaxY}}
	}
	return out
}

// httpStatus maps protocol error codes to HTTP statuses.
func httpStatus(code uint16) int {
	switch code {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeOverloaded:
		return http.StatusTooManyRequests
	case CodeDeadline:
		return http.StatusGatewayTimeout
	case CodeShuttingDown, CodeUnavailable:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// Handler returns the HTTP/JSON API: /query, /batch, /statsz, /healthz.
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
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		req, err := httpToRequest(r)
		if err != nil {
			s.errCount.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.serveJSON(w, req)
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var body struct {
			Rects          [][4]float64 `json:"rects"`
			Tenant         string       `json:"tenant"`
			DeadlineMillis uint32       `json:"deadline_ms"`
			Limit          uint32       `json:"limit"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, MaxRequestFrame)).Decode(&body); err != nil {
			s.errCount.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(body.Rects) > MaxBatch {
			s.errCount.Add(1)
			http.Error(w, fmt.Sprintf("batch of %d rects exceeds %d", len(body.Rects), MaxBatch), http.StatusBadRequest)
			return
		}
		req := Request{
			Op: OpBatch, Tenant: body.Tenant,
			DeadlineMillis: body.DeadlineMillis, Limit: body.Limit,
			Rects: make([]geom.Rect, len(body.Rects)),
		}
		for i, r4 := range body.Rects {
			req.Rects[i] = geom.NewRect(r4[0], r4[1], r4[2], r4[3])
		}
		s.serveJSON(w, req)
	})
	return mux
}

// serveJSON dispatches req and writes the JSON response.
func (s *Server) serveJSON(w http.ResponseWriter, req Request) {
	out := s.dispatch(req)
	if out.code != 0 {
		http.Error(w, out.msg, httpStatus(out.code))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	resp := map[string]interface{}{"op": opName(req.Op)}
	resp["degraded"] = len(out.failed) > 0
	if len(out.failed) > 0 {
		resp["failed_shards"] = out.failed
	}
	switch req.Op {
	case OpNearest:
		nbs := make([]httpItem, len(out.nbs))
		for i, nb := range out.nbs {
			d2 := nb.Dist2
			nbs[i] = httpItem{
				ID:    nb.Item.ID,
				Rect:  [4]float64{nb.Item.Rect.MinX, nb.Item.Rect.MinY, nb.Item.Rect.MaxX, nb.Item.Rect.MaxY},
				Dist2: &d2,
			}
		}
		resp["items"] = nbs
		resp["count"] = len(nbs)
	case OpStats:
		resp["shards"] = out.stats.Shards
		resp["items"] = out.stats.Items
		resp["mbr"] = [4]float64{out.stats.MBR.MinX, out.stats.MBR.MinY, out.stats.MBR.MaxX, out.stats.MBR.MaxY}
	case OpBatch:
		sets := make([][]httpItem, len(out.sets))
		total := 0
		for i, set := range out.sets {
			sets[i] = itemsJSON(set)
			total += len(set)
		}
		resp["results"] = sets
		resp["count"] = total
	default:
		items := out.sets[0]
		resp["items"] = itemsJSON(items)
		resp["count"] = len(items)
	}
	json.NewEncoder(w).Encode(resp)
}

// httpToRequest parses /query parameters into a Request.
func httpToRequest(r *http.Request) (Request, error) {
	q := r.URL.Query()
	req := Request{Tenant: q.Get("tenant")}
	if v := q.Get("deadline_ms"); v != "" {
		n, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			return Request{}, fmt.Errorf("bad deadline_ms: %w", err)
		}
		req.DeadlineMillis = uint32(n)
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			return Request{}, fmt.Errorf("bad limit: %w", err)
		}
		req.Limit = uint32(n)
	}
	op := q.Get("op")
	if op == "" {
		op = "window"
	}
	parseF := func(key string) (float64, error) {
		v, err := strconv.ParseFloat(q.Get(key), 64)
		if err != nil {
			return 0, fmt.Errorf("bad %s: %w", key, err)
		}
		return v, nil
	}
	switch op {
	case "window", "contained":
		req.Op = OpWindow
		if op == "contained" {
			req.Op = OpContained
		}
		parts := strings.Split(q.Get("rect"), ",")
		if len(parts) != 4 {
			return Request{}, fmt.Errorf("rect needs 4 comma-separated numbers")
		}
		var v [4]float64
		for i, p := range parts {
			f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return Request{}, fmt.Errorf("bad rect: %w", err)
			}
			v[i] = f
		}
		req.Rect = geom.NewRect(v[0], v[1], v[2], v[3])
	case "point", "nearest":
		var err error
		if req.X, err = parseF("x"); err != nil {
			return Request{}, err
		}
		if req.Y, err = parseF("y"); err != nil {
			return Request{}, err
		}
		if op == "point" {
			req.Op = OpPoint
		} else {
			req.Op = OpNearest
			k, err := strconv.ParseUint(q.Get("k"), 10, 32)
			if err != nil {
				return Request{}, fmt.Errorf("bad k: %w", err)
			}
			req.K = uint32(k)
		}
	case "stats":
		req.Op = OpStats
	default:
		return Request{}, fmt.Errorf("unknown op %q", op)
	}
	return req, nil
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

// Shutdown drains the server: listeners close, requests already being
// served run to completion (bounded by ctx), and new requests are
// rejected with CodeShuttingDown. It is idempotent; the first caller does
// the work. The Set itself is not closed — that stays with the caller.
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
	var httpErr error
	for _, srv := range https {
		if err := srv.Shutdown(ctx); err != nil && httpErr == nil {
			httpErr = err
		}
	}

	// Wait for in-flight binary requests, then cut idle connections so
	// their handler goroutines unblock from ReadFrame.
	if err := waitCtx(ctx, &s.inflight); err != nil {
		return err
	}
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	if err := waitCtx(ctx, &s.connWG); err != nil {
		return err
	}
	return httpErr
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
