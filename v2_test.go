package prtree

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"prtree/internal/bulk"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
	"prtree/internal/workload"
	"prtree/internal/zoo"
)

// TestOptionsNormalized is the table test over nil/zero/negative options
// for the collapsed normalization logic.
func TestOptionsNormalized(t *testing.T) {
	cases := []struct {
		name      string
		in        *Options
		wantBlock int
		wantCache int
	}{
		{name: "nil", in: nil, wantBlock: DefaultBlockSize, wantCache: -1},
		{name: "zero", in: &Options{}, wantBlock: DefaultBlockSize, wantCache: -1},
		{name: "negative block", in: &Options{BlockSize: -5}, wantBlock: DefaultBlockSize, wantCache: -1},
		{name: "explicit block", in: &Options{BlockSize: 8192}, wantBlock: 8192, wantCache: -1},
		{name: "negative cache stays", in: &Options{CacheCapacity: -7}, wantBlock: DefaultBlockSize, wantCache: -7},
		{name: "positive cache stays", in: &Options{CacheCapacity: 12}, wantBlock: DefaultBlockSize, wantCache: 12},
		{name: "both set", in: &Options{BlockSize: 2048, CacheCapacity: 3}, wantBlock: 2048, wantCache: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in.normalized()
			if got.BlockSize != tc.wantBlock {
				t.Errorf("BlockSize = %d, want %d", got.BlockSize, tc.wantBlock)
			}
			if got.CacheCapacity != tc.wantCache {
				t.Errorf("CacheCapacity = %d, want %d", got.CacheCapacity, tc.wantCache)
			}
			if tc.in != nil && !reflect.DeepEqual(*tc.in, func() Options {
				c := *tc.in
				return c
			}()) {
				t.Errorf("normalized mutated its receiver")
			}
		})
	}
}

// TestEmptyIndexOwnsNoPage: a created index owns no page — across Close and
// Open, and to every query — so its first BulkLoad writes the tree from
// page 0 and the file holds exactly its nodes, with no page left over from
// the empty state.
func TestEmptyIndexOwnsNoPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.pr")
	tree, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if total, inUse := tree.PageCounts(); total != 0 || inUse != 0 {
		t.Fatalf("a created index has %d pages, %d in use", total, inUse)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 0 || re.Nodes() != 0 || re.Height() != 0 || re.MBR().Valid() {
		t.Fatalf("reopened empty index: len %d, nodes %d, height %d, MBR %v", re.Len(), re.Nodes(), re.Height(), re.MBR())
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	world := NewRect(0, 0, 1, 1)
	if n, err := re.Count(Window(world)); n != 0 || err != nil {
		t.Errorf("window count %d (%v)", n, err)
	}
	if got := collect(t, re, Contained(world)); len(got) != 0 {
		t.Errorf("containment found %d", len(got))
	}
	if got := collect(t, re, Point(0.5, 0.5)); len(got) != 0 {
		t.Errorf("point query found %d", len(got))
	}
	if got := nearest(t, re, 0.5, 0.5, 3); len(got) != 0 {
		t.Errorf("k-NN found %d", len(got))
	}
	if got := collect(t, re, Window(world)); len(got) != 0 {
		t.Errorf("window query found %d", len(got))
	}
	if got := re.inner.Items(); len(got) != 0 {
		t.Errorf("Items() = %d", len(got))
	}
	if io := re.IOStats(); io.Total() != 0 {
		t.Errorf("queries of an empty index did block I/O %v", io)
	}

	if err := re.BulkLoad(PR, zoo.Uniform(3000, 0.02, 41)); err != nil {
		t.Fatal(err)
	}
	if total, inUse := re.PageCounts(); total != re.Nodes() || inUse != re.Nodes() {
		t.Fatalf("after the first load: %d pages, %d in use, for a tree of %d", total, inUse, re.Nodes())
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateCloseOpen proves the persistence contract: Open after
// Create+Close returns a tree whose Items and query results match the
// original with zero rebuild work (no page writes at all). The index is of
// the raw page layout, the only one.
func TestCreateCloseOpen(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		items := dataset.Western(4000, 17)
		path := filepath.Join(t.TempDir(), "roundtrip.pr")

		tree, err := Create(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.BulkLoad(TGS, items); err != nil {
			t.Fatal(err)
		}
		wantItems := tree.inner.Items()
		world := geom.ItemsMBR(items)
		queries := workload.Squares(world, 0.01, 20, 5)
		wantResults := make([][]Item, len(queries))
		for i, q := range queries {
			wantResults[i] = collect(t, tree, Window(q))
		}
		wantLen, wantHeight, wantNodes := tree.Len(), tree.Height(), tree.Nodes()
		if err := tree.Close(); err != nil {
			t.Fatal(err)
		}
		if err := tree.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}

		re, err := Open(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if re.Len() != wantLen || re.Height() != wantHeight || re.Nodes() != wantNodes {
			t.Fatalf("reopened shape %d/%d/%d, want %d/%d/%d",
				re.Len(), re.Height(), re.Nodes(), wantLen, wantHeight, wantNodes)
		}
		if got := re.inner.Items(); !reflect.DeepEqual(got, wantItems) {
			t.Fatal("reopened Items differ")
		}
		for i, q := range queries {
			if got := collect(t, re, Window(q)); !reflect.DeepEqual(got, wantResults[i]) {
				t.Fatalf("reopened query %d differs", i)
			}
		}
		// Zero rebuild work: reopening and querying writes nothing.
		if io := re.IOStats(); io.Writes != 0 {
			t.Fatalf("reopened tree performed %d writes; want 0 (zero rebuild)", io.Writes)
		}
		if err := re.Validate(); err != nil {
			t.Fatalf("reopened tree invalid: %v", err)
		}

		// Opening with a mismatched block size must fail inspectably.
		if _, err := Open(path, &Options{BlockSize: 8192}); !errors.Is(err, ErrBlockSizeMismatch) {
			t.Fatalf("Open with wrong block size: %v, want ErrBlockSizeMismatch", err)
		}
	})
}

// TestOpenRejectsCompressedLayout: an index file of the compressed page
// layout earlier versions wrote — metadata layout word 1, or pages flagged 1
// in header byte 1 — fails Open with an error that says to rebuild it,
// instead of opening and reading those pages as 36-byte entries.
func TestOpenRejectsCompressedLayout(t *testing.T) {
	const slot = DefaultBlockSize + 8 // a page slot: the block and its CRC32C + length trailer
	for _, tc := range []struct {
		name  string
		patch func(file []byte, meta int)
	}{
		{"meta layout word 1", func(file []byte, meta int) {
			binary.LittleEndian.PutUint64(file[meta+8+7*8:], 1)
		}},
		{"root page flag 1", func(file []byte, meta int) {
			root := int(binary.LittleEndian.Uint64(file[meta+8:]))
			page := file[DefaultBlockSize+root*slot:][:slot]
			page[1] = 1
			n := binary.LittleEndian.Uint32(page[DefaultBlockSize+4:])
			binary.LittleEndian.PutUint32(page[DefaultBlockSize:], crc32.Checksum(page[:n], crc32.MakeTable(crc32.Castagnoli)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "old.pr")
			tree, err := Create(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.BulkLoad(PR, dataset.Western(2000, 3)); err != nil {
				t.Fatal(err)
			}
			if err := tree.Close(); err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.patch(file, bytes.Index(file[:DefaultBlockSize], []byte("PRTREE02")))
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := Open(path, nil)
			if err == nil {
				re.Close()
				t.Fatal("Open read a compressed-layout index as raw entries")
			}
			if !strings.Contains(err.Error(), "compressed page layout is no longer read; rebuild the index") {
				t.Fatalf("Open: %v", err)
			}
		})
	}
}

// TestFileBackedUpdatesPersist: updates to a file-backed tree — BulkLoad
// rebuilds, one transaction each, every one written beside the tree it
// replaces — survive Close/Open, and the freed pages of one rebuild house
// the next.
func TestFileBackedUpdatesPersist(t *testing.T) {
	path := filepath.Join(t.TempDir(), "updates.pr")
	tree, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var items []Item
	for i := 0; i < 5000; i++ {
		x, y := rng.Float64(), rng.Float64()
		items = append(items, Item{Rect: NewRect(x, y, x+0.01, y+0.01), ID: uint32(i)})
	}
	for _, step := range []struct {
		l        Loader
		from, to int
	}{{PR, 0, 5000}, {Hilbert, 1000, 5000}, {PR, 0, 4000}} {
		if err := tree.BulkLoad(step.l, items[step.from:step.to]); err != nil {
			t.Fatal(err)
		}
	}
	want := collect(t, tree, Window(NewRect(0, 0, 1, 1)))
	nodes := tree.Nodes()
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 4000 || re.Nodes() != nodes {
		t.Fatalf("reopened Len = %d, Nodes = %d; want 4000, %d", re.Len(), re.Nodes(), nodes)
	}
	if got := collect(t, re, Window(NewRect(0, 0, 1, 1))); !reflect.DeepEqual(got, want) {
		t.Fatal("reopened search differs after updates")
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := re.CheckPages(); err != nil {
		t.Fatal(err)
	}
	// The third tree took the first one's pages, lowest first, and the
	// checkpoints cut off the second one's: the file is the live tree.
	if total, inUse := re.PageCounts(); inUse != nodes || total != nodes {
		t.Errorf("%d pages, %d in use, for a tree of %d", total, inUse, nodes)
	}
}

// TestQueryRejectsNonFinite: a query with a NaN or infinite coordinate —
// a window, point or containment corner, a nearest-neighbor center —
// fails on a Tree and on a Dynamic through every consumer before any
// traversal: Run calls nothing back and returns an error, Iter yields
// nothing, Collect, Count and CollectNearest return no results and an
// error, and a WithStats sink reads zero visits.
func TestQueryRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	items := dataset.Western(2000, 5)
	d, _ := querySurfaceDynamic(t, items)
	queries := map[string]Query{
		"Window/NaN":    Window(Rect{MinX: nan, MaxX: 1, MaxY: 1}),
		"Window/+Inf":   Window(Rect{MaxX: inf, MaxY: 1}),
		"Point/NaN":     Point(nan, 0.5),
		"Point/-Inf":    Point(0.5, -inf),
		"Contained/NaN": Contained(Rect{MaxX: 1, MinY: nan, MaxY: 1}),
		"Contained/Inf": Contained(Rect{MaxX: 1, MaxY: inf}),
		"Nearest/NaN":   Nearest(nan, 0, 3),
		"Nearest/+Inf":  Nearest(inf, 0, 3),
		"Nearest/-Inf":  Nearest(0, -inf, 3),
	}
	for index, s := range map[string]querier{"Tree": Bulk(items, nil), "Dynamic": d} {
		for name, q := range queries {
			t.Run(index+"/"+name, func(t *testing.T) {
				st := QueryStats{NodesVisited: -1}
				q := q.WithStats(&st)
				called := 0
				if err := s.Run(q, func(Item) bool { called++; return true }); err == nil || called != 0 {
					t.Errorf("Run: %d results, error %v", called, err)
				}
				if st != (QueryStats{}) {
					t.Errorf("Run: stats %+v, want no visit", st)
				}
				for range s.Iter(q) {
					called++
				}
				if called != 0 {
					t.Errorf("Iter yielded %d items", called)
				}
				if out, err := s.Collect(q); err == nil || len(out) != 0 {
					t.Errorf("Collect: %d items, error %v", len(out), err)
				}
				if n, err := s.Count(q); err == nil || n != 0 {
					t.Errorf("Count: %d, error %v", n, err)
				}
				if nb, err := s.CollectNearest(q); err == nil || len(nb) != 0 {
					t.Errorf("CollectNearest: %d neighbors, error %v", len(nb), err)
				}
			})
		}
	}
}

// querySurfaceDynamic builds a Dynamic over items and deletes every fifth
// of the first half, once those sit in levels: at least two levels, a
// non-empty buffer and tombstones. Small blocks keep the buffer small
// enough for several levels. It returns the index and its live items.
func querySurfaceDynamic(t *testing.T, items []Item) (*Dynamic, []Item) {
	t.Helper()
	d := NewDynamic(&Options{BlockSize: 512})
	for _, it := range items {
		mustInsert(t, d, it)
	}
	var live []Item
	for i, it := range items {
		if i < len(items)/2 && i%5 == 0 {
			if !mustDelete(t, d, it) {
				t.Fatalf("delete %d failed", it.ID)
			}
			continue
		}
		live = append(live, it)
	}
	inLevels := 0
	for _, n := range d.LevelSizes() {
		inLevels += n
	}
	if levels := d.inner.Levels(); levels < 2 || d.BufferLen() == 0 || inLevels+d.BufferLen() == d.Len() {
		t.Fatalf("set-up: slots %v, buffer %d, live %d: want 2 levels, a buffer and tombstones",
			d.LevelSizes(), d.BufferLen(), d.Len())
	}
	return d, live
}

// TestQuerySurface exercises the composable Query options — limits,
// cancellation, stats sinks, Count, every kind against brute force, the
// iterator and the Nearest order — on both index kinds: a Tree, and a
// Dynamic with levels, a buffer and tombstones, whose brute force runs over
// its live items. Twenty records share one rectangle, so k-NN at its
// center ties at the K-th distance, where the lowest IDs must win.
func TestQuerySurface(t *testing.T) {
	items := dataset.Western(3000, 23)
	for i := 1; i < len(items); i += 150 {
		items[i].Rect = items[0].Rect
	}
	tx, ty := items[0].Rect.Center()
	world := geom.ItemsMBR(items)
	d, live := querySurfaceDynamic(t, items)
	inputs := []struct {
		name  string
		index querier
		live  []Item
	}{
		{"Tree", Bulk(items, nil), items},
		{"Dynamic", d, live},
	}

	t.Run("limit", func(t *testing.T) {
		for _, in := range inputs {
			var st QueryStats
			got, err := in.index.Collect(Window(world).WithLimit(7).WithStats(&st))
			if err != nil || len(got) != 7 || st.Results != 7 {
				t.Fatalf("%s, limit 7: %d results, stats %+v, err %v", in.name, len(got), st, err)
			}
			if n, err := in.index.Count(Window(world).WithLimit(0)); err != nil || n != len(in.live) {
				t.Fatalf("%s, limit 0 (unbounded): %d, want %d (err %v)", in.name, n, len(in.live), err)
			}
			// The window holds every tombstoned item the Dynamic keeps:
			// only live items count toward the limit.
			limit := len(in.live) - 1
			got, err = in.index.Collect(Window(world).WithLimit(limit))
			if err == nil {
				err = zoo.Expect(in.live, zoo.Query{Rect: world, Limit: limit}).Check(got)
			}
			if err != nil {
				t.Fatalf("%s, limit %d: %v", in.name, limit, err)
			}
		}
	})

	t.Run("cancellation", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, in := range inputs {
			var st QueryStats
			err := in.index.Run(Window(world).WithContext(ctx).WithStats(&st), nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, canceled query: err = %v", in.name, err)
			}
			if st.NodesVisited != 0 || st.Results != 0 {
				t.Fatalf("%s, canceled-before-start query: %+v", in.name, st)
			}
			// A live context must not interfere.
			if _, err := in.index.Collect(Window(world).WithContext(context.Background())); err != nil {
				t.Fatalf("%s, live context: %v", in.name, err)
			}
			// Nearest honors cancellation too.
			if err := in.index.Run(Nearest(0.5, 0.5, 5).WithContext(ctx), nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, canceled nearest: err = %v", in.name, err)
			}
		}
	})

	t.Run("kinds agree with brute force", func(t *testing.T) {
		q := workload.Squares(world, 0.02, 1, 3)[0]
		for _, in := range inputs {
			for _, c := range []struct {
				query Query
				want  zoo.Query
			}{
				{Window(q), zoo.Query{Rect: q}},
				{Contained(q), zoo.Query{Kind: zoo.Contained, Rect: q}},
				{Point(0.3, 0.7), zoo.Query{Rect: geom.PointRect(0.3, 0.7)}},
				{Nearest(0.5, 0.5, 9), zoo.Query{Kind: zoo.Nearest, X: 0.5, Y: 0.5, K: 9}},
				{Nearest(tx, ty, 9), zoo.Query{Kind: zoo.Nearest, X: tx, Y: ty, K: 9}},
			} {
				if err := zoo.Expect(in.live, c.want).CheckRanked(collect(t, in.index, c.query)); err != nil {
					t.Errorf("%s, %v: %v", in.name, c.want, err)
				}
			}
			// CollectNearest reports the same items with their distances.
			var want []Neighbor
			for _, it := range zoo.Expect(in.live, zoo.Query{Kind: zoo.Nearest, X: tx, Y: ty, K: 9}).Ranked() {
				want = append(want, Neighbor{Item: it, Dist2: it.Rect.Dist2(tx, ty)})
			}
			if got := nearest(t, in.index, tx, ty, 9); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, CollectNearest: %v, brute force %v", in.name, got, want)
			}
		}
	})

	t.Run("iterator early break", func(t *testing.T) {
		for _, in := range inputs {
			var st QueryStats
			n := 0
			for range in.index.Iter(Window(world).WithStats(&st)) {
				n++
				if n == 3 {
					break
				}
			}
			if n != 3 {
				t.Fatalf("%s: broke after %d items", in.name, n)
			}
			if st.Results < 3 {
				t.Fatalf("%s: stats sink not filled on early break: %+v", in.name, st)
			}
		}
	})

	t.Run("nearest limit", func(t *testing.T) {
		for _, in := range inputs {
			got, err := in.index.Collect(Nearest(0.5, 0.5, 9).WithLimit(4))
			if err != nil || len(got) != 4 {
				t.Fatalf("%s, nearest with limit: %d results (err %v)", in.name, len(got), err)
			}
			if err := zoo.Expect(in.live, zoo.Query{Kind: zoo.Nearest, X: 0.5, Y: 0.5, K: 4}).CheckRanked(got); err != nil {
				t.Fatalf("%s, nearest with limit: %v", in.name, err)
			}
		}
	})
}

// TestQueryAllocsZero pins the read path's garbage at nothing: a window,
// containment or Nearest query through Run, Iter or Count allocates
// nothing per query, on a Tree and on a Dynamic with levels, a buffer and
// tombstones — traversal scratch and statistics stay off the heap, and so
// do the caller's callback and what it captures. Every call is on the concrete
// type, as a caller makes it: through an interface the callback escapes.
// A Nearest query's neighbors wait in pooled scratch until they are
// yielded, on a Dynamic after its levels append to one pooled candidate
// list; CollectNearest allocates only the answer it returns.
func TestQueryAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled scratch")
	}
	items := dataset.Western(3000, 23)
	tree := Bulk(items, nil)
	d, _ := querySurfaceDynamic(t, items)
	world := geom.ItemsMBR(items)
	q := workload.Squares(world, 0.05, 1, 3)[0]
	for _, c := range []struct {
		name    string
		run     func(Query) int
		nearest bool // whether it runs Nearest queries
	}{
		{"Tree.Run", func(q Query) int {
			n := 0
			_ = tree.Run(q, func(Item) bool { n++; return true })
			return n
		}, true},
		{"Tree.Iter", func(q Query) int {
			n := 0
			for range tree.Iter(q) {
				n++
			}
			return n
		}, true},
		{"Tree.Count", func(q Query) int { n, _ := tree.Count(q); return n }, true},
		{"Dynamic.Run", func(q Query) int {
			n := 0
			_ = d.Run(q, func(Item) bool { n++; return true })
			return n
		}, true},
		{"Dynamic.Iter", func(q Query) int {
			n := 0
			for range d.Iter(q) {
				n++
			}
			return n
		}, true},
		{"Dynamic.Count", func(q Query) int { n, _ := d.Count(q); return n }, true},
		{"Dynamic.Query", func(q Query) int { return d.Query(q.rect, nil).Results }, false}, // a window on q's rect
	} {
		for _, query := range []Query{Window(q), Contained(world), Nearest(0.5, 0.5, 1), Nearest(0.5, 0.5, 10), Nearest(0.5, 0.5, 100)} {
			if query.kind == queryNearest && !c.nearest {
				continue
			}
			if c.run(query) == 0 {
				t.Fatalf("%s(%+v) finds nothing", c.name, query)
			}
			if a := testing.AllocsPerRun(50, func() { c.run(query) }); a != 0 {
				t.Errorf("%s(%+v) allocates %v a query; want 0", c.name, query, a)
			}
		}
	}
	// Items tied at the k-th distance join the answer in pooled scratch
	// until it is cut to k: 40 copies of one rectangle centred on the query
	// point, among uniform items.
	tied := zoo.Uniform(2000, 0.01, 29)
	for i := range 40 {
		tied = append(tied, Item{Rect: geom.NewRect(0.49, 0.49, 0.51, 0.51), ID: uint32(2000 + i)})
	}
	tiedTree := Bulk(tied, nil)
	tiedDyn, _ := querySurfaceDynamic(t, tied)
	for _, c := range []struct {
		name string
		run  func(Query) int
	}{
		{"Tree.Run", func(q Query) int {
			n := 0
			_ = tiedTree.Run(q, func(Item) bool { n++; return true })
			return n
		}},
		{"Tree.Count", func(q Query) int { n, _ := tiedTree.Count(q); return n }},
		{"Dynamic.Run", func(q Query) int {
			n := 0
			_ = tiedDyn.Run(q, func(Item) bool { n++; return true })
			return n
		}},
		{"Dynamic.Count", func(q Query) int { n, _ := tiedDyn.Count(q); return n }},
	} {
		for _, k := range []int{1, 10, 100} {
			q := Nearest(0.5, 0.5, k)
			if n := c.run(q); n != k {
				t.Fatalf("%s over ties at k %d finds %d", c.name, k, n)
			}
			if a := testing.AllocsPerRun(50, func() { c.run(q) }); a != 0 {
				t.Errorf("%s over ties at k %d allocates %v a query; want 0", c.name, k, a)
			}
		}
	}
	// CollectNearest allocates the answer it hands over, once.
	for _, k := range []int{1, 10, 100} {
		q := Nearest(0.5, 0.5, k)
		for name, collect := range map[string]func(Query) ([]Neighbor, error){"Tree": tree.CollectNearest, "Dynamic": d.CollectNearest} {
			if a := testing.AllocsPerRun(50, func() { _, _ = collect(q) }); a != 1 {
				t.Errorf("%s.CollectNearest at k %d allocates %v a query; want 1, its answer", name, k, a)
			}
		}
	}
}

// TestUncachedDiskWindowAllocsZero: a pager that caches nothing over an
// in-memory Disk answers a window without allocating. Every node visit is
// a miss, and the miss takes the Disk's own page bytes rather than a
// BlockSize copy of them. A bounded pager holding a tenth of the tree's
// nodes allocates nothing either, though its misses evict: the evicted
// entry carries the page that replaces it.
func TestUncachedDiskWindowAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled scratch")
	}
	items := dataset.Western(3000, 23)
	nodes := bulk.PRTreeSlice(storage.NewPager(storage.NewDisk(storage.DefaultBlockSize), -1), items, bulk.Options{}).Nodes()
	q := workload.Squares(geom.ItemsMBR(items), 0.05, 1, 3)[0]
	for _, capacity := range []int{0, nodes / 10} {
		disk := storage.NewDisk(storage.DefaultBlockSize)
		pager := storage.NewPager(disk, capacity)
		tree := bulk.PRTreeSlice(pager, items, bulk.Options{})
		n := 0
		count := func(geom.Item) bool { n++; return true }
		disk.ResetStats()
		st, err := tree.RunWindow(q, false, count, rtree.RunOptions{})
		if err != nil || n == 0 || st.NodesVisited < 2 {
			t.Fatalf("capacity %d: the window found %d items over %d nodes (%v); want a multi-node query", capacity, n, st.NodesVisited, err)
		}
		cs := pager.CacheStats()
		if reads := disk.Stats().Reads; reads != cs.Misses || capacity == 0 && reads != uint64(st.NodesVisited) {
			t.Fatalf("capacity %d: %d nodes visited cost %d block reads and %d misses; want one a miss, and one a node uncached", capacity, st.NodesVisited, reads, cs.Misses)
		}
		if capacity > 0 && cs.Evictions == 0 {
			t.Fatalf("capacity %d of %d nodes: a window over %d nodes evicts nothing", capacity, nodes, st.NodesVisited)
		}
		if a := testing.AllocsPerRun(50, func() { _, _ = tree.RunWindow(q, false, count, rtree.RunOptions{}) }); a != 0 {
			t.Errorf("capacity %d: a window over %d nodes allocates %v a query; want 0", capacity, st.NodesVisited, a)
		}
	}
}

// TestPagerReplayCounts pins the pager's counters over a serial replay of
// 20,000 1 % windows after PinInternal, with a bounded cache of a tenth of
// the tree's nodes and with an unbounded one. Every count is exact, so a
// change to eviction order, pin accounting or the miss path shows here.
func TestPagerReplayCounts(t *testing.T) {
	items := dataset.Western(30000, 2004)
	nodes := bulk.PRTreeSlice(storage.NewPager(storage.NewDisk(storage.DefaultBlockSize), -1), items, bulk.Options{}).Nodes()
	queries := workload.Squares(geom.ItemsMBR(items), 0.01, 20000, 7)
	for _, want := range []struct {
		stats storage.CacheStats
		reads uint64 // block reads after PinInternal
	}{
		{storage.CacheStats{Hits: 74625, Misses: 114200, Evictions: 114178, Resident: 22, Capacity: nodes / 10}, 114005},
		{storage.CacheStats{Hits: 188630, Misses: 195, Resident: 195, Capacity: -1}, 0},
	} {
		disk := storage.NewDisk(storage.DefaultBlockSize)
		pager := storage.NewPager(disk, want.stats.Capacity)
		tree := bulk.PRTreeSlice(pager, items, bulk.Options{})
		tree.PinInternal()
		disk.ResetStats()
		for _, q := range queries {
			tree.RunWindow(q, false, nil, rtree.RunOptions{})
		}
		if got, reads := pager.CacheStats(), disk.Stats().Reads; nodes != 195 || got != want.stats || reads != want.reads {
			t.Errorf("%d nodes, capacity %d: %+v and %d block reads; want 195 nodes, %+v and %d", nodes, want.stats.Capacity, got, reads, want.stats, want.reads)
		}
	}
}

// TestConcurrentIterFileBacked runs many Iter consumers against one
// file-backed tree simultaneously — the race-detector test for the
// file backend + pager + pull-iterator stack. Run under -race in CI
// (matched by the `-run Concurrent` stress job).
func TestConcurrentIterFileBacked(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	items := dataset.Western(8000, 31)
	path := filepath.Join(t.TempDir(), "concurrent.pr")
	tree, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.BulkLoad(PR, items); err != nil {
		t.Fatal(err)
	}
	world := geom.ItemsMBR(items)
	queries := workload.Squares(world, 0.01, 32, 13)
	want := make([][]Item, len(queries))
	for i, q := range queries {
		want[i] = collect(t, tree, Window(q))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, q := range queries {
					var got []Item
					for it := range tree.Iter(Window(q)) {
						got = append(got, it)
					}
					if !reflect.DeepEqual(got, want[i]) {
						errs <- fmt.Errorf("worker %d rep %d query %d: results differ", w, rep, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
