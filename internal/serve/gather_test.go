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
// the legs, the merge into the response frame and its writes.
func pipedConn(srv *Server, out io.Writer) (*serverConn, *loopReader) {
	r := &loopReader{}
	return &serverConn{s: srv, br: bufio.NewReader(r), w: out}, r
}

func requestFrame(t *testing.T, req Request) []byte {
	t.Helper()
	frame, err := EncodeRequest(frameStart(nil), req)
	if err != nil {
		t.Fatal(err)
	}
	return frameEnd(frame)
}

// TestServeWindowAllocsZero: once the server is warm, a window,
// containment or k-NN request allocates nothing, with and without a limit,
// on a four-shard set — the frame read into the connection's buffer, the
// legs on the connection's goroutine, the merge and the response frame in
// the pooled scratch. The containment request and the k-NN request at
// k 3,000 answer every item, so the warm scratch's legs are as large as
// the set; their frames span two chunks. After every request the pooled
// frame holds at most one chunk.
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
	x, y := (q.MinX+q.MaxX)/2, (q.MinY+q.MaxY)/2
	for _, req := range []Request{
		{Op: OpWindow, Rect: q},
		{Op: OpWindow, Rect: q, Limit: 7},
		{Op: OpContained, Rect: world},
		{Op: OpContained, Rect: world, Limit: 7},
		{Op: OpNearest, X: x, Y: y, K: 1},
		{Op: OpNearest, X: x, Y: y, K: 10},
		{Op: OpNearest, X: x, Y: y, K: 100},
		{Op: OpNearest, X: x, Y: y, K: 100, Limit: 7},
		{Op: OpNearest, X: x, Y: y, K: 3000},
	} {
		r.frame, r.off = requestFrame(t, req), 0
		out.Reset()
		if err := c.serveOne(); err != nil {
			t.Fatal(err)
		}
		res, err := DecodeResponse(out.Bytes()[4:])
		n := len(res.Neighbors)
		if req.Op != OpNearest && err == nil && len(res.Sets) == 1 {
			n = len(res.Sets[0])
		}
		if err != nil || n == 0 {
			t.Fatalf("%+v: %d results (%v); want a non-empty answer", req, n, err)
		}
		if a := testing.AllocsPerRun(50, func() { out.Reset(); _ = c.serveOne() }); a != 0 {
			t.Errorf("%+v (%d results): %v allocations a request; want 0", req, n, a)
		}
		if n == set.Len() && out.Len() <= chunkBytes {
			t.Fatalf("%+v: the set-sized frame of %d bytes fits one chunk of %d", req, out.Len(), chunkBytes)
		}
		sc := scratches.Get().(*scratch)
		if cap(sc.frame) > chunkBytes {
			t.Errorf("%+v: after a frame of %d bytes the pooled frame holds %d bytes; want at most the chunk, %d", req, out.Len(), cap(sc.frame), chunkBytes)
		}
		scratches.Put(sc)
	}
}

// writeLog is a connection's response side that keeps the size of every
// write.
type writeLog struct {
	bytes.Buffer
	writes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// chunked reports whether the frame written went out in chunks as the
// server cuts them from records of size bytes: one write for a frame of
// up to chunkBytes, else full chunks — none past chunkBytes, none with
// room left for another record — and a last, shorter one.
func (w *writeLog) chunked(size int) error {
	if w.Len() <= chunkBytes && len(w.writes) != 1 {
		return fmt.Errorf("a frame of %d bytes went out in %d writes; want 1", w.Len(), len(w.writes))
	}
	for i, n := range w.writes {
		if n == 0 || n > chunkBytes || (i < len(w.writes)-1 && n+size <= chunkBytes) {
			return fmt.Errorf("write %d of %d is %d bytes (chunk %d, record %d)", i+1, len(w.writes), n, chunkBytes, size)
		}
	}
	return nil
}

// TestStreamedFrameMatchesUnion: the response frame a connection merges
// its legs into is, byte for byte, AppendOKResponse over the expected
// answer. For a window or containment query that is the union of the
// shards' answers in (ID, rect) order, cut to the limit, taken shard by
// shard from each tree under the same limit, so the expected frame is
// built without the legs or the merge. For a k-NN query it is the zoo's
// ranked answer over the items of the shards in rotation, with their
// distances, cut to the limit. Every zoo entry is served at 1, 3 and 4
// shards, every query at limits 0, 1 and 7, whole and with the last shard
// out of rotation, when the frame must list it and hold only the other
// shards' items. A larger set's whole window, containment and k-NN answers
// span three chunks or more; at the limits that end a frame on the first
// chunk's last record and one record later it must go out in one write
// and in two.
func TestStreamedFrameMatchesUnion(t *testing.T) {
	type input struct {
		name    string
		items   []geom.Item
		qs      []zoo.Query
		chunked bool // the whole answer spans three chunks or more
	}
	var inputs []input
	for e, entry := range zoo.Entries {
		items := entry.Gen(400, int64(e))
		inputs = append(inputs, input{name: entry.Name, items: items, qs: zoo.Queries(items, 8, int64(e))})
	}
	big := zoo.Uniform(6000, 0.01, 56)
	world := geom.ItemsMBR(big)
	inputs = append(inputs, input{"uniform6000", big, []zoo.Query{
		{Kind: zoo.Window, Rect: world},
		{Kind: zoo.Contained, Rect: world},
		{Kind: zoo.Nearest, X: (world.MinX + world.MaxX) / 2, Y: world.MinY, K: len(big)},
	}, true})

	for _, in := range inputs {
		for _, shards := range []int{1, 3, 4} {
			set := buildSet(t, in.items, shards)
			var out writeLog
			c, r := pipedConn(New(Config{Set: set}), &out)
			// serve sends req and holds its frame to want, and to the
			// chunks the server cuts from records of size bytes; it
			// returns the writes made.
			serve := func(label string, req Request, want []byte, size int) int {
				out.Reset()
				out.writes = out.writes[:0]
				r.frame, r.off = requestFrame(t, req), 0
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
				if err := out.chunked(size); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return len(out.writes)
			}
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
				// served: the items of the shards in rotation.
				var served []geom.Item
				for i, sh := range set.shards {
					if !degraded || i < shards-1 {
						got, err := sh.tree.Collect(prtree.Window(geom.ItemsMBR(in.items)))
						if err != nil {
							t.Fatal(err)
						}
						served = append(served, got...)
					}
				}
				for _, q := range in.qs {
					op, pq, size := OpWindow, prtree.Window(q.Rect), itemBytes
					switch q.Kind {
					case zoo.Contained:
						op, pq = OpContained, prtree.Contained(q.Rect)
					case zoo.Nearest:
						op, size = OpNearest, neighborBytes
					}
					limits := []int{0, 1, 7}
					if in.chunked {
						// The most records the first chunk holds after the
						// frame's length prefix, head and counts.
						head := 4 + 3 + 4*len(failed) + 4
						if op != OpNearest {
							head += 4 // the set count
						}
						first := (chunkBytes - head) / size
						limits = append(limits, first, first+1)
					}
					for _, limit := range limits {
						label := fmt.Sprintf("%s shards=%d degraded=%v %v limit=%d", in.name, shards, degraded, q, limit)
						var want []byte
						var n int
						if op == OpNearest {
							var nbs []Neighbor
							for _, it := range zoo.Expect(served, q).Ranked() {
								nbs = append(nbs, Neighbor{Item: it, Dist2: it.Rect.Dist2(q.X, q.Y)})
							}
							if limit > 0 && len(nbs) > limit {
								nbs = nbs[:limit]
							}
							n, want = len(nbs), AppendOKResponse(nil, op, failed, nil, nbs, nil)
						} else {
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
							if !degraded && limit == 0 {
								if err := zoo.Expect(in.items, zoo.Query{Kind: q.Kind, Rect: q.Rect}).Check(union); err != nil {
									t.Fatalf("%s: the shards' union: %v", label, err)
								}
							}
							n, want = len(union), AppendOKResponse(nil, op, failed, [][]geom.Item{union}, nil, nil)
						}
						writes := serve(label, Request{Op: op, Rect: q.Rect, X: q.X, Y: q.Y, K: uint32(q.K), Limit: uint32(limit)}, want, size)
						if in.chunked && (limit == 0 && writes < 3 || limit == limits[3] && writes != 1 || limit == limits[4] && writes != 2) {
							t.Fatalf("%s: %d records went out in %d writes", label, n, writes)
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
