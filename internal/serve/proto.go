// Package serve turns the PR-tree library into a network query server: a
// sharded index directory (built by prtool shard or Build) is opened as a
// scatter-gather Set whose shards split one global page-cache budget, and
// Server answers queries over one length-prefixed binary protocol, with
// per-tenant admission control, per-request deadlines wired to
// Query.WithContext and graceful drain. A separate HTTP admin listener
// serves /healthz and /statsz, the latter reporting pager/IO counters plus
// per-endpoint latency histograms.
//
// # Wire protocol
//
// Every message is one frame: a 4-byte big-endian payload length followed
// by that many payload bytes. Request payloads are capped at
// MaxRequestFrame; responses at MaxResponseFrame. A request payload is
//
//	op        byte     (OpWindow, OpContained, OpNearest, OpStats)
//	tenantLen byte     followed by tenantLen bytes of tenant id
//	deadline  uint32   request deadline in milliseconds (0 = server default)
//	limit     uint32   max results per query (0 = unlimited)
//	args               op-specific, big-endian IEEE-754 floats:
//	  window/contained  4 × float64 (minx, miny, maxx, maxy)
//	  nearest           2 × float64 (x, y) + uint32 k
//	  stats             none
//
// A response payload is a status byte (0 = ok, 1 = error) and the echoed
// op byte. An error response carries an error record (uint16 code, uint16
// message length, message bytes). An ok response carries a degraded-shards
// section — one byte holding the count of shards that contributed nothing
// to this result, followed by that many uint32 shard indices (zero for a
// complete result) — and then the op's result: for window and contained a
// uint32 set count (always 1) and per set a uint32 item count followed by
// items (uint32 id + 4 × float64 rect); for nearest one set of
// neighbors (uint32 id + 4 × float64 rect + float64 squared distance); for
// stats a uint32 shard count, uint64 item count and the 4 × float64 global
// MBR.
//
// Decoding is defensive end to end: torn frames, oversized length
// prefixes and truncated payloads return the typed errors ErrTornFrame,
// ErrFrameTooLarge and ErrBadFrame — never a panic, and never an
// allocation larger than the configured frame cap.
//
// # How a query is served
//
// A connection's requests are served in order on its own goroutine, and
// so are a query's legs: the shards in rotation are queried one after
// another on that goroutine, each appending its answer through Tree.Run to
// one buffer with its end recorded; a leg that fails is cut off the buffer,
// contributes nothing and is listed in the response. A window or
// containment leg is then sorted in place by (ID, rect); a k-NN leg, its
// shard's top k, arrives in (distance², ID) order. A k-way merge in that
// order writes the answer, cut to the request's limit (k for k-NN),
// straight into the response frame. Every answer kind streams: the frame's
// length prefix is known from the head and the merge's count before the
// first byte, every error and degraded-shard decision is made before it,
// and the frame is built and written in chunks of at most 64 KiB, so an
// answer of up to one chunk is one write. Only stats and error frames are
// built whole. The legs buffer and the chunk are a scratch the request
// takes from a pool and returns once its last chunk is written: per
// request in flight the pool holds a legs buffer, sized to the largest
// answer it gathered, and at most one chunk, sized to the largest frame it
// wrote, and nothing per open connection but the request frame it reads
// into, at most MaxRequestFrame bytes. A warm server answers a window,
// containment or k-NN request without allocating. Set.Window,
// Set.Contained and Set.Nearest take the same path with a throwaway
// scratch.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"prtree"
	"prtree/internal/geom"
)

// Frame and payload limits.
const (
	// MaxRequestFrame caps request payloads. The largest request is a
	// window or contained query under a MaxTenant-byte tenant: op (1) +
	// tenant length (1) + tenant (255) + deadline (4) + limit (4) + rect
	// (32) = 297 bytes; a nearest query's args are 20 bytes. ReadFrame
	// allocates what a header claims, so the cap bounds what one header
	// can make the server allocate.
	MaxRequestFrame = 512
	// MaxResponseFrame caps response payloads a client will accept.
	MaxResponseFrame = 64 << 20
	// MaxTenant caps the tenant id length (it fits the one-byte prefix).
	MaxTenant = 255
)

// Ops of the binary protocol: one per query executor, plus stats. Ops 3
// and 5 are retired (a point query is the zero-area window
// geom.PointRect builds) and decode as unknown ops.
const (
	OpWindow    byte = 1 // rect intersection query
	OpContained byte = 2 // rect containment query
	OpNearest   byte = 4 // k-nearest-neighbor query
	OpStats     byte = 6 // shard count, item count, global MBR
)

// Typed framing and decoding errors. Handlers and clients test these with
// errors.Is; none of them ever surfaces as a panic.
var (
	// ErrFrameTooLarge reports a length prefix above the frame cap. The
	// oversized payload is not read, let alone allocated.
	ErrFrameTooLarge = errors.New("serve: frame exceeds size limit")
	// ErrTornFrame reports a frame truncated mid-header or mid-payload —
	// the peer hung up partway through a write.
	ErrTornFrame = errors.New("serve: torn frame")
	// ErrBadFrame reports a syntactically invalid payload: unknown op,
	// truncated arguments, or counts inconsistent with the payload length.
	ErrBadFrame = errors.New("serve: malformed frame payload")
)

// Response status bytes and error codes.
const (
	statusOK  byte = 0
	statusErr byte = 1

	// CodeBadRequest reports an undecodable or invalid request.
	CodeBadRequest uint16 = 1
	// CodeOverloaded reports an admission-control rejection (the tenant's
	// in-flight cap is reached); the client may retry after backoff.
	CodeOverloaded uint16 = 2
	// CodeDeadline reports a request whose deadline expired mid-traversal.
	CodeDeadline uint16 = 3
	// CodeShuttingDown reports a request that arrived while the server
	// drains; in-flight requests still complete.
	CodeShuttingDown uint16 = 4
	// CodeInternal reports any other server-side failure.
	CodeInternal uint16 = 5
	// CodeUnavailable reports a query that could not run because every
	// shard is out of rotation (quarantined or permanently failed); the
	// client may retry after backoff while auto-recovery works.
	CodeUnavailable uint16 = 6
)

// MaxFailedShards caps the degraded-shards list of one ok response (it
// fits the one-byte count prefix). Responses degraded by more shards than
// this report only the first MaxFailedShards indices.
const MaxFailedShards = 255

// Request is one decoded query request.
type Request struct {
	Op             byte
	Tenant         string
	DeadlineMillis uint32
	Limit          uint32

	Rect geom.Rect // window, contained
	X, Y float64   // nearest
	K    uint32    // nearest
}

// Result is one decoded ok-response.
type Result struct {
	Op        byte
	Sets      [][]geom.Item // window/contained: one set
	Neighbors []Neighbor    // nearest
	Stats     *WireStats    // stats
	// FailedShards lists the shards that contributed nothing to this
	// result (quarantined, permanently failed, or failed mid-query).
	// Empty means the result is complete.
	FailedShards []uint32
}

// Degraded reports whether the result is missing at least one shard's
// contribution. Degraded results are correct but partial: every item in
// them is real, items homed on the failed shards are absent.
func (r Result) Degraded() bool { return len(r.FailedShards) > 0 }

// Neighbor is the tree's k-NN result: an item plus squared distance.
type Neighbor = prtree.Neighbor

// WireStats is the OpStats result: enough for a client pointed at a
// remote server to synthesize a workload over the served world.
type WireStats struct {
	Shards uint32
	Items  uint64
	MBR    geom.Rect
}

// RemoteError is a server-reported failure decoded from an error response.
type RemoteError struct {
	Code uint16
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("serve: remote error %d: %s", e.Code, e.Msg)
}

// ReadFrame reads one length-prefixed frame from r, rejecting payloads
// above max before allocating anything. io.EOF is returned only at a clean
// frame boundary; a connection cut mid-frame is ErrTornFrame. The payload
// is freshly allocated; a server connection reads its requests with
// readFrame into a buffer it keeps.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var buf []byte
	return readFrame(r, &buf, max)
}

// readFrame is ReadFrame reading into *buf, which it grows to the frame's
// size when it is smaller: the payload it returns aliases *buf and is
// valid until the next read into it.
func readFrame(r io.Reader, buf *[]byte, max int) ([]byte, error) {
	if cap(*buf) < 4 {
		*buf = make([]byte, 4)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: header: %v", ErrTornFrame, err)
	}
	n := binary.BigEndian.Uint32(hdr)
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrTornFrame, err)
	}
	return payload, nil
}

// WriteFrame writes payload as one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameStart begins a frame in buf's storage: the length prefix, which
// frameEnd fills in once the payload has been appended after it, or
// writeMerged before the first chunk goes out.
func frameStart(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// frameEnd sets the length prefix of a frame begun by frameStart.
func frameEnd(frame []byte) []byte {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

// --- request encoding -----------------------------------------------------

func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}
func appendRect(b []byte, r geom.Rect) []byte {
	b = appendF64(b, r.MinX)
	b = appendF64(b, r.MinY)
	b = appendF64(b, r.MaxX)
	return appendF64(b, r.MaxY)
}

// EncodeRequest appends req's wire form to buf and returns the result.
func EncodeRequest(buf []byte, req Request) ([]byte, error) {
	if len(req.Tenant) > MaxTenant {
		return buf, fmt.Errorf("%w: tenant longer than %d bytes", ErrBadFrame, MaxTenant)
	}
	buf = append(buf, req.Op)
	buf = append(buf, byte(len(req.Tenant)))
	buf = append(buf, req.Tenant...)
	buf = appendU32(buf, req.DeadlineMillis)
	buf = appendU32(buf, req.Limit)
	switch req.Op {
	case OpWindow, OpContained:
		buf = appendRect(buf, req.Rect)
	case OpNearest:
		buf = appendF64(buf, req.X)
		buf = appendF64(buf, req.Y)
		buf = appendU32(buf, req.K)
	case OpStats:
	default:
		return buf, fmt.Errorf("%w: unknown op %d", ErrBadFrame, req.Op)
	}
	return buf, nil
}

// reader is a bounds-checked cursor over one payload. Every take method
// reports failure instead of slicing past the end.
type reader struct {
	b  []byte
	ok bool
}

func (r *reader) take(n int) []byte {
	if !r.ok || len(r.b) < n {
		r.ok = false
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) rect() geom.Rect {
	return geom.Rect{MinX: r.f64(), MinY: r.f64(), MaxX: r.f64(), MaxY: r.f64()}
}

// DecodeRequest parses one request payload. Malformed input — truncated
// fields, unknown ops, counts that disagree with the payload length —
// returns an error wrapping ErrBadFrame; it never panics and never
// allocates more than the payload itself implies.
func DecodeRequest(payload []byte) (Request, error) {
	r := reader{b: payload, ok: true}
	var req Request
	req.Op = r.u8()
	tlen := int(r.u8())
	req.Tenant = string(r.take(tlen))
	req.DeadlineMillis = r.u32()
	req.Limit = r.u32()
	switch req.Op {
	case OpWindow, OpContained:
		req.Rect = r.rect()
	case OpNearest:
		req.X, req.Y = r.f64(), r.f64()
		req.K = r.u32()
	case OpStats:
	default:
		return Request{}, fmt.Errorf("%w: unknown op %d", ErrBadFrame, req.Op)
	}
	if !r.ok {
		return Request{}, fmt.Errorf("%w: truncated request", ErrBadFrame)
	}
	if len(r.b) != 0 {
		return Request{}, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(r.b))
	}
	return req, nil
}

// --- response encoding ----------------------------------------------------

// AppendOKResponse appends an ok-response for op to buf: the degraded
// shard list (failed may be nil for a complete result, and is truncated
// to MaxFailedShards entries), then item sets for window/contained,
// neighbors for nearest, stats for stats.
func AppendOKResponse(buf []byte, op byte, failed []uint32, sets [][]geom.Item, nbs []Neighbor, st *WireStats) []byte {
	buf = appendOKHead(buf, op, failed)
	switch op {
	case OpNearest:
		buf = appendU32(buf, uint32(len(nbs)))
		for _, nb := range nbs {
			buf = appendU32(buf, nb.Item.ID)
			buf = appendRect(buf, nb.Item.Rect)
			buf = appendF64(buf, nb.Dist2)
		}
	case OpStats:
		buf = appendU32(buf, st.Shards)
		buf = appendU64(buf, st.Items)
		buf = appendRect(buf, st.MBR)
	default:
		buf = appendU32(buf, uint32(len(sets)))
		for _, set := range sets {
			buf = appendU32(buf, uint32(len(set)))
			for _, it := range set {
				buf = appendItem(buf, it)
			}
		}
	}
	return buf
}

// appendOKHead appends what every ok-response starts with: the status, the
// op and the degraded-shard list, truncated to MaxFailedShards entries.
func appendOKHead(buf []byte, op byte, failed []uint32) []byte {
	buf = append(buf, statusOK, op)
	if len(failed) > MaxFailedShards {
		failed = failed[:MaxFailedShards]
	}
	buf = append(buf, byte(len(failed)))
	for _, idx := range failed {
		buf = appendU32(buf, idx)
	}
	return buf
}

func appendItem(buf []byte, it geom.Item) []byte {
	return appendRect(appendU32(buf, it.ID), it.Rect)
}

// itemBytes is one item's wire size: uint32 id + 4 × float64 rect.
const itemBytes = 36

// neighborBytes is one neighbor's wire size: an item + float64 distance².
const neighborBytes = itemBytes + 8

// chunkBytes is the most of one response frame the server holds at once:
// a window, containment or k-NN answer goes to the connection in chunks of
// at most this size, each built in the request's pooled scratch, so what a
// request in flight holds for its frame is at most this constant, not its
// answer. 64 KiB amortises a write over 1,820 items; bufio's 4 KiB costs a
// syscall every 113.
const chunkBytes = 64 << 10

// writeMerged writes to w the frame of the ok-response AppendOKResponse
// encodes for op whose answer is l's merge — a window or containment op's
// one set, or a k-NN op's neighbors with their distances recomputed —
// taking the items from the merge as it yields them: no merged copy is
// made. The length prefix is set from the head and l.left before the first
// byte goes out. The frame is built in buf's storage, grown if it must be
// to the frame's size but never past chunkBytes, and returned for reuse:
// it is written out whenever the next record would carry it past
// chunkBytes, and what is left at the end, so a frame of up to chunkBytes
// is one write. The first failed write ends it.
func writeMerged(w io.Writer, buf []byte, op byte, failed []uint32, l *legs) ([]byte, error) {
	b := appendOKHead(frameStart(buf), op, failed)
	size := neighborBytes
	if !l.near {
		size = itemBytes
		b = appendU32(b, 1) // one set
	}
	b = appendU32(b, uint32(l.left))
	binary.BigEndian.PutUint32(b, uint32(len(b)-4+size*l.left))
	if want := min(len(b)+size*l.left, chunkBytes); cap(b) < want {
		b = append(make([]byte, 0, want), b...)
	}
	for it, ok := l.next(); ok; it, ok = l.next() {
		if len(b)+size > chunkBytes {
			if _, err := w.Write(b); err != nil {
				return b, err
			}
			b = b[:0]
		}
		b = appendItem(b, it)
		if l.near {
			b = appendF64(b, it.Rect.Dist2(l.x, l.y))
		}
	}
	_, err := w.Write(b)
	return b, err
}

// AppendErrResponse appends an error response to buf.
func AppendErrResponse(buf []byte, op byte, code uint16, msg string) []byte {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	buf = append(buf, statusErr, op)
	buf = binary.BigEndian.AppendUint16(buf, code)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(msg)))
	return append(buf, msg...)
}

// DecodeResponse parses one response payload into a Result, or the
// server's RemoteError. Framing-level garbage wraps ErrBadFrame.
func DecodeResponse(payload []byte) (Result, error) {
	r := reader{b: payload, ok: true}
	status := r.u8()
	op := r.u8()
	if !r.ok {
		return Result{}, fmt.Errorf("%w: truncated response", ErrBadFrame)
	}
	if status == statusErr {
		code := r.u16()
		mlen := int(r.u16())
		msg := string(r.take(mlen))
		if !r.ok {
			return Result{}, fmt.Errorf("%w: truncated error response", ErrBadFrame)
		}
		if len(r.b) != 0 {
			return Result{}, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(r.b))
		}
		return Result{Op: op}, &RemoteError{Code: code, Msg: msg}
	}
	if status != statusOK {
		return Result{}, fmt.Errorf("%w: unknown status %d", ErrBadFrame, status)
	}
	out := Result{Op: op}
	nFailed := int(r.u8())
	if !r.ok || len(r.b) < nFailed*4 {
		return Result{}, fmt.Errorf("%w: degraded-shard count disagrees with payload length", ErrBadFrame)
	}
	if nFailed > 0 {
		out.FailedShards = make([]uint32, nFailed)
		for i := range out.FailedShards {
			out.FailedShards[i] = r.u32()
		}
	}
	switch op {
	case OpNearest:
		n := int(r.u32())
		if !r.ok || len(r.b) != n*neighborBytes {
			return Result{}, fmt.Errorf("%w: neighbor count disagrees with payload length", ErrBadFrame)
		}
		out.Neighbors = make([]Neighbor, n)
		for i := range out.Neighbors {
			out.Neighbors[i].Item.ID = r.u32()
			out.Neighbors[i].Item.Rect = r.rect()
			out.Neighbors[i].Dist2 = r.f64()
		}
	case OpStats:
		st := WireStats{Shards: r.u32(), Items: r.u64(), MBR: r.rect()}
		if !r.ok {
			return Result{}, fmt.Errorf("%w: truncated stats response", ErrBadFrame)
		}
		out.Stats = &st
	case OpWindow, OpContained:
		nsets := int(r.u32())
		if !r.ok || nsets > len(r.b)/4+1 {
			return Result{}, fmt.Errorf("%w: set count disagrees with payload length", ErrBadFrame)
		}
		out.Sets = make([][]geom.Item, 0, nsets)
		for s := 0; s < nsets; s++ {
			n := int(r.u32())
			if !r.ok || n > len(r.b)/itemBytes {
				return Result{}, fmt.Errorf("%w: item count disagrees with payload length", ErrBadFrame)
			}
			set := make([]geom.Item, n)
			for i := range set {
				set[i].ID = r.u32()
				set[i].Rect = r.rect()
			}
			out.Sets = append(out.Sets, set)
		}
	default:
		return Result{}, fmt.Errorf("%w: unknown response op %d", ErrBadFrame, op)
	}
	if !r.ok {
		return Result{}, fmt.Errorf("%w: truncated response", ErrBadFrame)
	}
	if len(r.b) != 0 {
		return Result{}, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(r.b))
	}
	return out, nil
}
