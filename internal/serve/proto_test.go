package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"prtree/internal/geom"
)

func rect(a, b, c, d float64) geom.Rect { return geom.NewRect(a, b, c, d) }

// retiredBatchRequest is the payload of the many-windows request, op 5,
// that earlier protocol versions had: no tenant, deadline or limit, a
// count of one and one rect. Op 5 is unknown now.
var retiredBatchRequest = appendRect([]byte{5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, rect(0, 0, 1, 1))

// retiredPointRequest is the payload of the point-stabbing request, op 3,
// that earlier protocol versions had: no tenant, deadline or limit, then
// x and y. Op 3 is unknown now; a point query is a zero-area window.
var retiredPointRequest = appendF64(appendF64([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 3.25), -7.5)

func TestRequestRoundTrip(t *testing.T) {
	longest := strings.Repeat("t", MaxTenant)
	reqs := []Request{
		{Op: OpWindow, Rect: rect(1, 2, 3, 4)},
		{Op: OpContained, Tenant: "acme", DeadlineMillis: 250, Limit: 10, Rect: rect(-5, -5, 5, 5)},
		{Op: OpWindow, Rect: geom.PointRect(3.25, -7.5)},
		{Op: OpNearest, Tenant: "x", X: 0, Y: 0, K: 17},
		{Op: OpStats},
		// The largest requests there are: every field at its widest.
		{Op: OpWindow, Tenant: longest, DeadlineMillis: 1<<32 - 1, Limit: 1<<32 - 1, Rect: rect(-1e300, -1e300, 1e300, 1e300)},
		{Op: OpNearest, Tenant: longest, DeadlineMillis: 1<<32 - 1, Limit: 1<<32 - 1, X: 1e300, Y: -1e300, K: 1<<32 - 1},
	}
	for _, want := range reqs {
		buf, err := EncodeRequest(nil, want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		if len(buf) > MaxRequestFrame {
			t.Fatalf("a %d-byte request exceeds the frame cap", len(buf))
		}
		got, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestEncodeRequestRejects(t *testing.T) {
	if _, err := EncodeRequest(nil, Request{Op: OpWindow, Tenant: strings.Repeat("t", MaxTenant+1)}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized tenant: got %v, want ErrBadFrame", err)
	}
	for _, op := range []byte{5, 99} {
		if _, err := EncodeRequest(nil, Request{Op: op}); !errors.Is(err, ErrBadFrame) {
			t.Errorf("unknown op %d: got %v, want ErrBadFrame", op, err)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	items := []geom.Item{{ID: 1, Rect: rect(0, 0, 1, 1)}, {ID: 9, Rect: rect(5, 5, 6, 6)}}
	nbs := []Neighbor{{Item: items[0], Dist2: 0.25}, {Item: items[1], Dist2: 36}}
	st := &WireStats{Shards: 4, Items: 1234, MBR: rect(-10, -10, 10, 10)}

	cases := []struct {
		op     byte
		failed []uint32
		sets   [][]geom.Item
		nbs    []Neighbor
		st     *WireStats
	}{
		{op: OpWindow, sets: [][]geom.Item{items}},
		{op: OpWindow, sets: [][]geom.Item{{}}},
		{op: OpNearest, nbs: nbs},
		{op: OpNearest, nbs: nil},
		{op: OpStats, st: st},
		// Degraded responses carry the failed-shard indices.
		{op: OpWindow, failed: []uint32{2}, sets: [][]geom.Item{items[:1]}},
		{op: OpNearest, failed: []uint32{0, 3, 7}, nbs: nbs},
	}
	for _, c := range cases {
		buf := AppendOKResponse(nil, c.op, c.failed, c.sets, c.nbs, c.st)
		got, err := DecodeResponse(buf)
		if err != nil {
			t.Fatalf("op %d: decode: %v", c.op, err)
		}
		if got.Op != c.op {
			t.Errorf("op %d: echoed op %d", c.op, got.Op)
		}
		if !reflect.DeepEqual(got.FailedShards, c.failed) {
			t.Errorf("op %d: failed shards %v, want %v", c.op, got.FailedShards, c.failed)
		}
		if got.Degraded() != (len(c.failed) > 0) {
			t.Errorf("op %d: Degraded() = %v with %d failed shards", c.op, got.Degraded(), len(c.failed))
		}
		// Re-encoding the decoded result must reproduce the payload
		// byte-for-byte: the wire form is canonical.
		again := AppendOKResponse(nil, got.Op, got.FailedShards, got.Sets, got.Neighbors, got.Stats)
		if !bytes.Equal(again, buf) {
			t.Errorf("op %d: re-encode mismatch", c.op)
		}
	}
}

func TestErrorResponseRoundTrip(t *testing.T) {
	buf := AppendErrResponse(nil, OpWindow, CodeOverloaded, "too busy")
	res, err := DecodeResponse(buf)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("got %v, want *RemoteError", err)
	}
	if remote.Code != CodeOverloaded || remote.Msg != "too busy" || res.Op != OpWindow {
		t.Errorf("got code=%d msg=%q op=%d", remote.Code, remote.Msg, res.Op)
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	valid, err := EncodeRequest(nil, Request{Op: OpWindow, Rect: rect(0, 0, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"unknown op", []byte{42, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"truncated header", valid[:4]},
		{"truncated args", valid[:len(valid)-1]},
		{"trailing bytes", append(append([]byte(nil), valid...), 0)},
		{"tenant past end", []byte{OpStats, 200}},
		{"retired point op", retiredPointRequest},
		{"retired batch op", retiredBatchRequest},
	}
	for _, c := range cases {
		if _, err := DecodeRequest(c.payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: got %v, want ErrBadFrame", c.name, err)
		}
	}
}

func TestDecodeResponseErrors(t *testing.T) {
	ok := AppendOKResponse(nil, OpWindow, nil, [][]geom.Item{{{ID: 1, Rect: rect(0, 0, 1, 1)}}}, nil, nil)
	degraded := AppendOKResponse(nil, OpWindow, []uint32{1, 2}, [][]geom.Item{{}}, nil, nil)
	errResp := AppendErrResponse(nil, OpWindow, CodeInternal, "boom")
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"status only", []byte{statusOK}},
		{"unknown status", []byte{9, OpWindow}},
		{"unknown op", []byte{statusOK, 42, 0, 0, 0, 0, 0}},
		{"truncated items", ok[:len(ok)-1]},
		{"trailing bytes", append(append([]byte(nil), ok...), 0)},
		// A forged degraded-shard count larger than the remaining payload
		// must be rejected, not read past the end.
		{"forged failed count", []byte{statusOK, OpWindow, 0xff, 0, 0, 0, 1}},
		{"truncated failed list", degraded[:4]},
		{"error trailing bytes", append(append([]byte(nil), errResp...), 0)},
		{"truncated error msg", errResp[:len(errResp)-2]},
	}
	for _, c := range cases {
		if _, err := DecodeResponse(c.payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: got %v, want ErrBadFrame", c.name, err)
		}
	}
}

func TestReadFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	got, err := ReadFrame(bytes.NewReader(wire), MaxRequestFrame)
	if err != nil || string(got) != "hello" {
		t.Fatalf("got %q, %v", got, err)
	}
	// Clean EOF only at a frame boundary.
	if _, err := ReadFrame(bytes.NewReader(nil), MaxRequestFrame); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
	// Cut mid-header and mid-payload are torn, not EOF.
	for _, cut := range []int{2, len(wire) - 1} {
		if _, err := ReadFrame(bytes.NewReader(wire[:cut]), MaxRequestFrame); !errors.Is(err, ErrTornFrame) {
			t.Errorf("cut at %d: got %v, want ErrTornFrame", cut, err)
		}
	}
	// A length prefix above the cap is rejected before any allocation.
	for _, claim := range []uint32{MaxRequestFrame + 1, 1 << 20, 1<<32 - 1} {
		huge := binary.BigEndian.AppendUint32(nil, claim)
		if _, err := ReadFrame(bytes.NewReader(huge), MaxRequestFrame); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("header claiming %d bytes: got %v, want ErrFrameTooLarge", claim, err)
		}
	}
}

// FuzzFrameDecode feeds arbitrary bytes through every decoder: framing,
// request and response. Nothing may panic or allocate past the frame cap,
// and any payload that decodes must re-encode to the identical bytes (the
// wire form is canonical).
func FuzzFrameDecode(f *testing.F) {
	seedReq := func(req Request) {
		if buf, err := EncodeRequest(nil, req); err == nil {
			var frame bytes.Buffer
			WriteFrame(&frame, buf)
			f.Add(frame.Bytes())
			f.Add(buf)
		}
	}
	seedReq(Request{Op: OpWindow, Tenant: "t", Rect: rect(0, 0, 1, 1)})
	seedReq(Request{Op: OpNearest, X: 1, Y: 2, K: 3})
	// Retired point and batch requests, framed and bare: all decode to
	// ErrBadFrame.
	for _, retired := range [][]byte{retiredPointRequest, retiredBatchRequest} {
		f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(len(retired))), retired...))
		f.Add(retired)
	}
	seedReq(Request{Op: OpStats})
	f.Add(AppendOKResponse(nil, OpNearest, nil, nil, []Neighbor{{Dist2: 1}}, nil))
	f.Add(AppendErrResponse(nil, OpWindow, CodeDeadline, "late"))
	// Degraded responses: failed-shard lists of every shape.
	f.Add(AppendOKResponse(nil, OpWindow, []uint32{0}, [][]geom.Item{{}}, nil, nil))
	f.Add(AppendOKResponse(nil, 5, []uint32{1, 2, 250}, [][]geom.Item{{}, {}}, nil, nil))
	f.Add(AppendOKResponse(nil, OpNearest, []uint32{3}, nil, []Neighbor{{Dist2: 4}}, nil))
	f.Add([]byte{statusOK, OpWindow, 0xff, 0, 0, 0, 1}) // forged failed count
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0})
	f.Add([]byte{0, 0, 0, 5, 1, 2}) // torn: claims 5 bytes, carries 2

	f.Fuzz(func(t *testing.T, data []byte) {
		// Framing layer: errors must be the typed ones, payloads bounded.
		payload, err := ReadFrame(bytes.NewReader(data), MaxRequestFrame)
		if err != nil {
			if err != io.EOF && !errors.Is(err, ErrTornFrame) && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("ReadFrame: untyped error %v", err)
			}
		} else if len(payload) > MaxRequestFrame {
			t.Fatalf("ReadFrame returned %d bytes above the cap", len(payload))
		}

		// Request decoder: success must re-encode byte-identically.
		if req, err := DecodeRequest(data); err == nil {
			again, err := EncodeRequest(nil, req)
			if err != nil {
				t.Fatalf("decoded request did not re-encode: %v", err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("request re-encode mismatch:\n in %x\nout %x", data, again)
			}
		} else if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("DecodeRequest: untyped error %v", err)
		}

		// Response decoder: same canonicality contract.
		res, err := DecodeResponse(data)
		switch e := err.(type) {
		case nil:
			again := AppendOKResponse(nil, res.Op, res.FailedShards, res.Sets, res.Neighbors, res.Stats)
			if !bytes.Equal(again, data) {
				t.Fatalf("response re-encode mismatch:\n in %x\nout %x", data, again)
			}
		case *RemoteError:
			again := AppendErrResponse(nil, res.Op, e.Code, e.Msg)
			if !bytes.Equal(again, data) {
				t.Fatalf("error response re-encode mismatch:\n in %x\nout %x", data, again)
			}
		default:
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("DecodeResponse: untyped error %v", err)
			}
		}
	})
}
