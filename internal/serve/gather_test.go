package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"prtree"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/workload"
	"prtree/internal/zoo"
)

// loopReader hands out one request frame over and over, never more than
// the rest of the current copy per Read, so a bufio.Reader over it holds
// at most one frame.
type loopReader struct {
	frame []byte
	off   int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// pipedConn is a server connection without a socket: its requests come
// from the returned reader, its responses go to out. serveOne on it is the
// connection's whole per-request path — frame read, decode, admission,
// the legs, the merge into the response frame and the flush.
func pipedConn(srv *Server, out io.Writer) (*serverConn, *loopReader) {
	r := &loopReader{}
	return &serverConn{s: srv, br: bufio.NewReader(r), bw: bufio.NewWriter(out)}, r
}

func requestFrame(t *testing.T, req Request) []byte {
	t.Helper()
	frame, err := EncodeRequest(frameStart(nil), req)
	if err != nil {
		t.Fatal(err)
	}
	return frameEnd(frame)
}

// TestServeWindowAllocsZero: once the server is warm, a window or
// containment request allocates nothing, with and without a limit, on a
// four-shard set — the frame read into the connection's buffer, the legs
// on the connection's goroutine, the merge and the response frame in the
// pooled scratch. The containment request answers every item, so the warm
// scratch is as large as the set.
func TestServeWindowAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled scratch")
	}
	items := dataset.Western(3000, 23)
	set := buildSet(t, items, 4)
	var out bytes.Buffer
	c, r := pipedConn(New(Config{Set: set}), &out)
	world := set.MBR()
	q := workload.Squares(world, 0.05, 1, 3)[0]
	for _, req := range []Request{
		{Op: OpWindow, Rect: q},
		{Op: OpWindow, Rect: q, Limit: 7},
		{Op: OpContained, Rect: world},
		{Op: OpContained, Rect: world, Limit: 7},
	} {
		r.frame, r.off = requestFrame(t, req), 0
		out.Reset()
		if err := c.serveOne(); err != nil {
			t.Fatal(err)
		}
		res, err := DecodeResponse(out.Bytes()[4:])
		if err != nil || len(res.Sets) != 1 || len(res.Sets[0]) == 0 {
			t.Fatalf("op %d limit %d: %d sets (%v); want one non-empty set", req.Op, req.Limit, len(res.Sets), err)
		}
		if a := testing.AllocsPerRun(50, func() { out.Reset(); _ = c.serveOne() }); a != 0 {
			t.Errorf("op %d limit %d (%d items): %v allocations a request; want 0", req.Op, req.Limit, len(res.Sets[0]), a)
		}
	}
}

// TestStreamedFrameMatchesUnion: the response frame a connection merges
// its legs into is, byte for byte, AppendOKResponse over the union of
// the shards' answers in (ID, rect) order, cut to the limit. The union is
// taken shard by shard from each tree under the same limit, so the
// expected frame is built without the legs or the merge. Every zoo entry
// is served at 1, 3 and 4 shards, every window and containment query at
// limits 0, 1 and 7, whole and with the last shard out of rotation, when
// the frame must list it and hold only the other shards' items.
func TestStreamedFrameMatchesUnion(t *testing.T) {
	for e, entry := range zoo.Entries {
		items := entry.Gen(400, int64(e))
		var qs []zoo.Query
		for _, q := range zoo.Queries(items, 8, int64(e)) {
			if q.Kind != zoo.Nearest {
				qs = append(qs, q)
			}
		}
		for _, shards := range []int{1, 3, 4} {
			set := buildSet(t, items, shards)
			var out bytes.Buffer
			c, r := pipedConn(New(Config{Set: set}), &out)
			for _, degraded := range []bool{false, true} {
				if degraded && shards == 1 {
					continue // an answer without its only shard is an error
				}
				var failed []uint32
				if degraded {
					last := set.shards[shards-1]
					last.state.Store(int32(ShardQuarantined))
					failed = []uint32{uint32(last.idx)}
				}
				for _, q := range qs {
					for _, limit := range []int{0, 1, 7} {
						label := fmt.Sprintf("%s shards=%d degraded=%v %v limit=%d", entry.Name, shards, degraded, q, limit)
						op, pq := OpWindow, prtree.Window(q.Rect)
						if q.Kind == zoo.Contained {
							op, pq = OpContained, prtree.Contained(q.Rect)
						}
						var union []geom.Item
						for i, sh := range set.shards {
							if degraded && i == shards-1 {
								continue
							}
							got, err := sh.tree.Collect(pq.WithLimit(limit))
							if err != nil {
								t.Fatalf("%s: shard %d: %v", label, i, err)
							}
							union = append(union, got...)
						}
						slices.SortFunc(union, zoo.Less)
						if limit > 0 && len(union) > limit {
							union = union[:limit]
						}
						want := AppendOKResponse(nil, op, failed, [][]geom.Item{union}, nil, nil)

						out.Reset()
						r.frame, r.off = requestFrame(t, Request{Op: op, Rect: q.Rect, Limit: uint32(limit)}), 0
						if err := c.serveOne(); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						frame := out.Bytes()
						if len(frame) < 4 || int(binary.BigEndian.Uint32(frame)) != len(frame)-4 {
							t.Fatalf("%s: frame of %d bytes has a bad length prefix", label, len(frame))
						}
						if !bytes.Equal(frame[4:], want) {
							t.Fatalf("%s: streamed payload of %d bytes differs from AppendOKResponse's %d", label, len(frame)-4, len(want))
						}
						if !degraded && limit == 0 {
							if err := zoo.Expect(items, zoo.Query{Kind: q.Kind, Rect: q.Rect}).Check(union); err != nil {
								t.Fatalf("%s: the shards' union: %v", label, err)
							}
						}
					}
				}
			}
			set.shards[shards-1].state.Store(int32(ShardHealthy))
		}
	}
}

// TestConnectionsShareSet: eight connections at once on one Set, each
// sending its own mix of window, containment and limited requests, every
// answer checked against the zoo oracle. Each request gathers in a pooled
// scratch that passes from connection to connection, over trees they all
// share; CI runs it under the race detector.
func TestConnectionsShareSet(t *testing.T) {
	items := dataset.Western(2000, 17)
	_, addr := serveSet(t, Config{Set: buildSet(t, items, 4)})
	const conns = 8
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = func() error {
				cl, err := Dial(addr)
				if err != nil {
					return err
				}
				defer cl.Close()
				for i, q := range zoo.Queries(items, 12, int64(c)) {
					if q.Kind == zoo.Nearest {
						continue
					}
					if i%3 == 0 && q.Limit == 0 {
						q.Limit = 1 + i%7
					}
					op := OpWindow
					if q.Kind == zoo.Contained {
						op = OpContained
					}
					res, err := cl.Do(Request{Op: op, Rect: q.Rect, Limit: uint32(q.Limit)})
					if err != nil {
						return fmt.Errorf("%v: %w", q, err)
					}
					if len(res.Sets) != 1 || res.Degraded() {
						return fmt.Errorf("%v: %d sets, degraded %v", q, len(res.Sets), res.Degraded())
					}
					got, want := res.Sets[0], zoo.Expect(items, q)
					if q.Limit == 0 && !slices.Equal(got, want.Items()) {
						return fmt.Errorf("%v: %d items, the oracle's %d in merge order", q, len(got), len(want.Items()))
					}
					if err := want.Check(got); err != nil || !slices.IsSortedFunc(got, zoo.Less) {
						return fmt.Errorf("%v: %v (in merge order: %v)", q, err, slices.IsSortedFunc(got, zoo.Less))
					}
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("connection %d: %v", c, err)
		}
	}
}
