package prtree

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"prtree/internal/bulk"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/parallel"
	"prtree/internal/storage"
	"prtree/internal/workload"
	"prtree/internal/zoo"
)

// querier is the Query surface a Tree and a Dynamic share.
type querier interface {
	Run(Query, func(Item) bool) error
	Iter(Query) iter.Seq[Item]
	Collect(Query) ([]Item, error)
	Count(Query) (int, error)
	CollectNearest(Query) ([]Neighbor, error)
}

// collect runs q on t; a query error fails the test.
func collect(tb testing.TB, t querier, q Query) []Item {
	tb.Helper()
	out, err := t.Collect(q)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// nearest returns the k items nearest (x, y) with their distances.
func nearest(tb testing.TB, t querier, x, y float64, k int) []Neighbor {
	tb.Helper()
	out, err := t.CollectNearest(Nearest(x, y, k))
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// mustInsert, mustDelete and mustFlush are the dynamic index's mutations
// for tests that expect every commit to succeed: an error fails the test.
func mustInsert(tb testing.TB, d *Dynamic, it Item) {
	tb.Helper()
	if err := d.InsertE(it); err != nil {
		tb.Fatal(err)
	}
}

func mustDelete(tb testing.TB, d *Dynamic, it Item) bool {
	tb.Helper()
	ok, err := d.DeleteE(it)
	if err != nil {
		tb.Fatal(err)
	}
	return ok
}

func mustFlush(tb testing.TB, d *Dynamic) {
	tb.Helper()
	if err := d.FlushE(); err != nil {
		tb.Fatal(err)
	}
}

// TestLoadersTiedRecords: every loader builds a valid tree that holds and
// finds every record when records tie on every coordinate and their id —
// 3,000 copies of one item, and 5,000 records on 400 unit squares with 50
// ids — at fanout 16 and the default, through BulkWith and through Create
// and BulkLoad. TGS built nodes of no or too many entries here when its
// partition cut by (coordinate, id) alone.
func TestLoadersTiedRecords(t *testing.T) {
	same, tied := zoo.Twins(3000), zoo.Tied(5000)
	check := func(t *testing.T, tree *Tree, items []Item) {
		t.Helper()
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		n, err := tree.Count(Window(NewRect(-1, -1, 100, 100)))
		if err != nil || tree.Len() != len(items) || n != len(items) {
			t.Fatalf("Len %d, Count %d (%v) for %d items", tree.Len(), n, err, len(items))
		}
	}
	for _, l := range []Loader{PR, Hilbert, Hilbert4D, TGS} {
		for _, bs := range []int{580, 0} {
			for name, items := range map[string][]Item{"same": same, "tied": tied} {
				t.Run(fmt.Sprintf("%v/BlockSize=%d/%s", l, bs, name), func(t *testing.T) {
					opts := &Options{BlockSize: bs}
					check(t, BulkWith(l, items, opts), items)
					tree, err := Create(filepath.Join(t.TempDir(), "tied.pr"), opts)
					if err != nil {
						t.Fatal(err)
					}
					defer tree.Close()
					if err := tree.BulkLoad(l, items); err != nil {
						t.Fatal(err)
					}
					check(t, tree, items)
				})
			}
		}
	}
}

// TestInvalidRectRejected: BulkLoad and InsertE refuse an item whose
// rectangle has a NaN coordinate or an inverted extent, and leave the index
// as it was. Stored, such an item would count in Len while no query could
// find it and no DeleteE remove it.
func TestInvalidRectRejected(t *testing.T) {
	items := zoo.Uniform(2000, 0.02, 12)
	for _, bad := range []Rect{
		{MinX: math.NaN(), MinY: 0.1, MaxX: 0.2, MaxY: 0.2},
		{MinX: 0.3, MinY: 0.1, MaxX: 0.2, MaxY: 0.2},
	} {
		withBad := slices.Clone(items)
		withBad[1000].Rect = bad
		dir := t.TempDir()
		tree, err := Create(filepath.Join(dir, "bad.pr"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.BulkLoad(PR, items[:1000]); err != nil {
			t.Fatal(err)
		}
		for _, l := range []Loader{PR, Hilbert} {
			if err := tree.BulkLoad(l, withBad); err == nil {
				t.Errorf("%v: BulkLoad accepted an item with rectangle %v", l, bad)
			}
		}
		if n, _ := tree.Count(Window(NewRect(0, 0, 2, 2))); tree.Len() != 1000 || n != 1000 {
			t.Errorf("after the refused loads: Len %d, full window %d; want the first load's 1000", tree.Len(), n)
		}
		if err := tree.Close(); err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(dir, "bad.prd")
		d, err := CreateDynamic(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items[:100] {
			mustInsert(t, d, it)
		}
		if err := d.InsertE(Item{Rect: bad, ID: 5000}); err == nil {
			t.Errorf("InsertE accepted rectangle %v", bad)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if d, err = OpenDynamic(path, nil); err != nil {
			t.Fatal(err)
		}
		if n, _ := d.Count(Window(NewRect(0, 0, 2, 2))); d.Len() != 100 || n != 100 {
			t.Errorf("reopened after the refused insert: Len %d, full window %d; want 100", d.Len(), n)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueryEarlyStopAndStats(t *testing.T) {
	tree := Bulk(zoo.Uniform(2000, 0.02, 4), &Options{BlockSize: 580})
	count := 0
	var st QueryStats
	_ = tree.Run(Window(NewRect(0, 0, 1.1, 1.1)).WithStats(&st), func(Item) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop at %d", count)
	}
	if st.Results != 10 {
		t.Errorf("stats results = %d", st.Results)
	}
}

// TestInsertDelete: item-by-item updates go to a Dynamic; a static tree
// has no such methods.
func TestInsertDelete(t *testing.T) {
	items := zoo.Uniform(500, 0.02, 5)
	d := NewDynamic(&Options{BlockSize: 292})
	for _, it := range items {
		mustInsert(t, d, it)
	}
	extra := Item{Rect: NewRect(0.4, 0.4, 0.5, 0.5), ID: 99999}
	mustInsert(t, d, extra)
	if d.Len() != 501 {
		t.Fatalf("len = %d", d.Len())
	}
	found := false
	for _, it := range d.Search(extra.Rect) {
		if it.ID == extra.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted item not found")
	}
	if !mustDelete(t, d, extra) {
		t.Fatal("delete failed")
	}
	if mustDelete(t, d, extra) {
		t.Fatal("double delete succeeded")
	}
	if d.Len() != 500 {
		t.Fatalf("len = %d after the delete", d.Len())
	}
}

func TestIOStatsAndPinning(t *testing.T) {
	tree := BulkWith(PR, zoo.Uniform(5000, 0.02, 6), &Options{CacheCapacity: 1})
	pinned := tree.inner.PinInternal()
	if pinned == 0 {
		t.Fatal("no internal nodes pinned")
	}
	tree.ResetIOStats()
	var st QueryStats
	_ = tree.Run(Window(NewRect(0.2, 0.2, 0.4, 0.4)).WithStats(&st), nil)
	io := tree.IOStats()
	if io.Writes != 0 {
		t.Errorf("query wrote %d blocks", io.Writes)
	}
	if int(io.Reads) != st.LeavesVisited {
		t.Errorf("reads %d != leaves %d with pinned internals", io.Reads, st.LeavesVisited)
	}
}

func TestTreeMetadata(t *testing.T) {
	items := zoo.Uniform(3000, 0.02, 7)
	tree := Bulk(items, nil)
	if tree.Height() < 1 || tree.Nodes() < 1 {
		t.Errorf("height=%d nodes=%d", tree.Height(), tree.Nodes())
	}
	mbr := tree.MBR()
	for _, it := range items {
		if !mbr.Contains(it.Rect) {
			t.Fatal("MBR misses item")
		}
	}
	leaf, _ := tree.Utilization()
	if leaf < 0.9 {
		t.Errorf("leaf utilization %.2f", leaf)
	}
	got := tree.inner.Items()
	if len(got) != len(items) {
		t.Errorf("Items() = %d", len(got))
	}
}

func TestDynamicIndex(t *testing.T) {
	d := NewDynamic(&Options{BlockSize: 580})
	items := zoo.Uniform(800, 0.02, 8)
	for _, it := range items {
		mustInsert(t, d, it)
	}
	if d.Len() != 800 {
		t.Fatalf("len = %d", d.Len())
	}
	for _, it := range items[:300] {
		if !mustDelete(t, d, it) {
			t.Fatal("delete failed")
		}
	}
	for _, q := range zoo.Windows(20, 9) {
		if err := zoo.Expect(items[300:], zoo.Query{Rect: q}).Check(d.Search(q)); err != nil {
			t.Fatalf("dynamic query %v: %v", q, err)
		}
	}
	mustFlush(t, d)
	if d.Len() != 500 {
		t.Errorf("len after flush = %d", d.Len())
	}
	if d.IOStats().Total() == 0 {
		t.Error("dynamic index recorded no I/O")
	}
	d.ResetIOStats()
	if d.IOStats().Total() != 0 {
		t.Error("reset failed")
	}
}

// TestDynamicReusesDeletedID: a deleted item's ID may come back with any
// rectangle. Here the item sits in a level larger than the buffer, so the
// carry that takes its ID's new rectangle into a level leaves the old
// one's alone, and then the new item is deleted too: two tombstones of one
// ID, each hiding its own item. In memory and on file the answers hold to
// brute force after every step; on file also after a kill right after the
// reuse insert's log fsync (OpenDynamic re-applies it from its note), after
// Sync, and after Close and OpenDynamic.
func TestDynamicReusesDeletedID(t *testing.T) {
	opts := &Options{BlockSize: 512}
	for _, onFile := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "file"}[onFile], func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "reuse.prd")
			d := NewDynamic(opts)
			if onFile {
				var err error
				if d, err = CreateDynamic(path, opts); err != nil {
					t.Fatal(err)
				}
			}
			defer func() { d.Close() }()
			reopen := func(crash bool) {
				t.Helper()
				if crash {
					d.fileBackend(t).Abandon()
				} else if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				var err error
				if d, err = OpenDynamic(path, opts); err != nil {
					t.Fatal(err)
				}
			}
			r := rand.New(rand.NewSource(63))
			items := crashItems(r, 16*d.Base()+50, 0) // one level the buffer never reaches
			for _, it := range items {
				mustInsert(t, d, it)
			}
			mustFlush(t, d)
			old := items[5]
			reused := Item{Rect: NewRect(0.9, 0.05, 0.93, 0.08), ID: old.ID}
			if !mustDelete(t, d, old) {
				t.Fatal("the stored item was not deleted")
			}
			mustInsert(t, d, reused)
			live := append(slices.Delete(slices.Clone(items), 5, 6), reused)
			holdDynamicTo(t, d, live, old, reused)
			if onFile {
				reopen(true)
				if ri := d.Recovery(); ri == nil || ri.ReappliedNotes != 2 {
					t.Fatalf("Recovery() = %+v, want the delete and the reuse insert re-applied", ri)
				}
				holdDynamicTo(t, d, live, old, reused)
			}
			fill := crashItems(r, d.BufferCap()-d.BufferLen(), len(items))
			for _, it := range fill {
				mustInsert(t, d, it)
			}
			live = append(live, fill...)
			if sizes := d.LevelSizes(); d.BufferLen() != 0 || len(sizes) < 2 || sizes[len(sizes)-1] != len(items) {
				t.Fatalf("buffer %d, slots %v: want the carry beside the flushed level of %d", d.BufferLen(), sizes, len(items))
			}
			holdDynamicTo(t, d, live, old, reused)
			if !mustDelete(t, d, reused) || mustDelete(t, d, old) {
				t.Fatal("the new item was not deleted, or the old one was deleted again")
			}
			live = slices.DeleteFunc(live, func(it Item) bool { return it == reused })
			holdDynamicTo(t, d, live, old, reused)
			if onFile {
				if err := d.Sync(); err != nil {
					t.Fatal(err)
				}
				holdDynamicTo(t, d, live, old, reused)
				reopen(false)
				holdDynamicTo(t, d, live, old, reused)
			}
		})
	}
}

// holdDynamicTo requires d's Len, windows and Counts over old's and
// reused's rectangles and beyond, and its nearest neighbours of both, to be
// brute force's over live.
func holdDynamicTo(t *testing.T, d *Dynamic, live []Item, old, reused Item) {
	t.Helper()
	if d.Len() != len(live) {
		t.Fatalf("Len %d, want %d", d.Len(), len(live))
	}
	for _, q := range []Rect{old.Rect, reused.Rect, NewRect(0, 0, 1, 1), NewRect(0.2, 0.1, 0.6, 0.5)} {
		want := zoo.Expect(live, zoo.Query{Rect: q})
		if err := want.Check(collect(t, d, Window(q))); err != nil {
			t.Fatalf("window %v: %v", q, err)
		}
		if n, err := d.Count(Window(q)); err != nil || n != want.Len() {
			t.Fatalf("count %v: %d (err %v), want %d", q, n, err, want.Len())
		}
	}
	for _, it := range []Item{old, reused} {
		x, y := it.Rect.MinX, it.Rect.MinY
		var want []Neighbor
		for _, n := range zoo.Expect(live, zoo.Query{Kind: zoo.Nearest, X: x, Y: y, K: 5}).Ranked() {
			want = append(want, Neighbor{Item: n, Dist2: n.Rect.Dist2(x, y)})
		}
		if got := nearest(t, d, x, y, 5); !slices.Equal(got, want) {
			t.Fatalf("5 nearest to (%v, %v): %v, want %v", x, y, got, want)
		}
	}
}

func TestNilAndZeroOptions(t *testing.T) {
	a := Bulk(zoo.Uniform(100, 0.02, 10), nil)
	b := Bulk(zoo.Uniform(100, 0.02, 10), &Options{})
	if a.Height() != b.Height() || a.Nodes() != b.Nodes() {
		t.Error("nil and zero options should agree")
	}
}

// TestConcurrentQueriesMatchSequentialFig12 is the facade-level
// equivalence test on the Fig12 workload shape (PR-loaded TIGER-like data,
// square window queries, internal nodes pinned): one query per goroutine,
// through Run and Count, must return exactly the sequential results and
// stats at every worker count, and the aggregate block-I/O of a cold-cache
// concurrent run must be bit-identical to a cold-cache sequential run.
func TestConcurrentQueriesMatchSequentialFig12(t *testing.T) {
	// Raise GOMAXPROCS so parallel.Run fans out even on single-CPU
	// machines (workers are clamped to GOMAXPROCS).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	items := dataset.Western(20000, 5)
	world := geom.ItemsMBR(items)
	// Two nontrivial accounting regimes: capacity 0 with pinned internals is
	// the paper's measurement mode (every leaf visit is one disk read), and
	// the unbounded default with a cold cache charges each distinct page
	// once, its miss filled under the pager's lock.
	for _, capacity := range []int{-1, 0} {
		// The facade treats CacheCapacity 0 as "default" (unbounded), so
		// build the capacity-0 pager explicitly for the paper's
		// nothing-cached measurement mode.
		disk := storage.NewDisk(storage.DefaultBlockSize)
		pager := storage.NewPager(disk, capacity)
		inner := bulk.LoadSlice(bulk.LoaderPR, pager, items, bulk.Options{})
		tree := &Tree{handle: handle{io: disk, pager: pager}, inner: inner}
		queries := workload.Squares(world, 0.01, 60, 6)
		coldStart := func() {
			tree.inner.Pager().DropCache()
			if capacity == 0 {
				tree.inner.PinInternal()
			}
			tree.ResetIOStats()
		}

		coldStart()
		wantResults := make([][]Item, len(queries))
		wantStats := make([]QueryStats, len(queries))
		for i, q := range queries {
			wantResults[i] = collect(t, tree, Window(q))
			_ = tree.Run(Window(q).WithStats(&wantStats[i]), nil)
		}
		serialIO := tree.IOStats()
		if serialIO.Reads == 0 {
			t.Fatalf("cap=%d: serial baseline did no disk reads; the identity check would be vacuous", capacity)
		}

		for _, workers := range []int{1, 2, 4, 8} {
			coldStart()
			gotResults := make([][]Item, len(queries))
			gotStats := make([]QueryStats, len(queries))
			// A query error would show as a mismatch below.
			parallel.Run(workers, len(queries), func(i int) {
				q := Window(queries[i])
				_ = tree.Run(q, func(it Item) bool {
					gotResults[i] = append(gotResults[i], it)
					return true
				})
				_, _ = tree.Count(q.WithStats(&gotStats[i]))
			})
			concurrentIO := tree.IOStats()

			for i := range queries {
				if gotStats[i] != wantStats[i] {
					t.Fatalf("cap=%d workers=%d query %d: stats %+v, want %+v",
						capacity, workers, i, gotStats[i], wantStats[i])
				}
				if !slices.Equal(gotResults[i], wantResults[i]) {
					t.Fatalf("cap=%d workers=%d query %d: %d results, want %d (or order differs)",
						capacity, workers, i, len(gotResults[i]), len(wantResults[i]))
				}
			}
			// Both intervals start cold and perform the same page accesses
			// (a first traversal per query, then a second re-reading), so the
			// aggregate must match the serial interval exactly.
			if concurrentIO != serialIO {
				t.Fatalf("cap=%d workers=%d: aggregate I/O %v, want %v (bit-identical to serial)",
					capacity, workers, concurrentIO, serialIO)
			}
		}
	}
}

// TestConcurrentIOStatsDuringBatch reads and resets the I/O counters while
// a batch runs, one query per goroutine — the counter race the pager's
// and the disk's atomic counters fix. Run under -race in CI.
func TestConcurrentIOStatsDuringBatch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	items := zoo.Uniform(8000, 0.02, 21)
	tree := Bulk(items, nil)
	queries := make([]Rect, 64)
	rng := rand.New(rand.NewSource(22))
	for i := range queries {
		x, y := rng.Float64(), rng.Float64()
		queries[i] = NewRect(x, y, x+0.2, y+0.2)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			parallel.Run(8, len(queries), func(i int) { _, _ = tree.Count(Window(queries[i])) })
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			_ = tree.IOStats()
			tree.ResetIOStats()
		}
	}
}

// TestEmptyTree: every loader over zero items leaves the one empty tree —
// no page, height 0 — which validates and answers every query with
// nothing; a file-backed one closes to a file of no pages and reopens.
func TestEmptyTree(t *testing.T) {
	empty := func(what string, tree *Tree) {
		t.Helper()
		if tree.Len() != 0 || tree.Nodes() != 0 || tree.Height() != 0 {
			t.Errorf("%s: len %d, nodes %d, height %d; want 0, 0, 0", what, tree.Len(), tree.Nodes(), tree.Height())
		}
		if err := tree.Validate(); err != nil {
			t.Errorf("%s: %v", what, err)
		}
		for _, q := range []Query{Window(NewRect(0, 0, 1, 1)), Point(0.5, 0.5), Contained(NewRect(0, 0, 1, 1)), Nearest(0.5, 0.5, 3)} {
			if got := collect(t, tree, q); len(got) != 0 {
				t.Errorf("%s: query answered %v", what, got)
			}
		}
	}
	for _, l := range []Loader{PR, Hilbert, Hilbert4D, TGS} {
		empty(l.String(), BulkWith(l, nil, nil))
	}

	path := filepath.Join(t.TempDir(), "empty.pr")
	tree, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(PR, nil); err != nil {
		t.Fatal(err)
	}
	empty("file", tree)
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	empty("reopened", re)
	if total, inUse := re.PageCounts(); total != 0 || inUse != 0 {
		t.Errorf("an empty index file holds %d pages, %d in use; want none", total, inUse)
	}
}

// TestHandleAfterClose holds the storage lifecycle that a static Tree and
// a Dynamic share: what a fresh handle reports, that a second Close is a
// no-op, and that every call that would touch the closed storage fails.
func TestHandleAfterClose(t *testing.T) {
	type storageHandle interface {
		Path() string
		PageCounts() (total, inUse int)
		Recovery() *RecoveryInfo
		Sync() error
		CheckPages() error
		Close() error
	}
	items := dataset.Uniform(500, 0.01, 1)
	dir := t.TempDir()
	cases := []struct {
		name string
		path string // "" in memory
		open func(path string) (storageHandle, func() error, error)
	}{
		{"Bulk", "", func(string) (storageHandle, func() error, error) {
			tr := Bulk(items, nil)
			return tr, func() error { return tr.BulkLoad(PR, items) }, nil
		}},
		{"Create", filepath.Join(dir, "static.pr"), func(path string) (storageHandle, func() error, error) {
			tr, err := Create(path, nil)
			return tr, func() error { return tr.BulkLoad(PR, items) }, err
		}},
		{"NewDynamic", "", func(string) (storageHandle, func() error, error) {
			d := NewDynamic(nil)
			return d, func() error { return d.InsertE(items[0]) }, nil
		}},
		{"CreateDynamic", filepath.Join(dir, "dynamic.pr"), func(path string) (storageHandle, func() error, error) {
			d, err := CreateDynamic(path, nil)
			return d, func() error { return d.InsertE(items[0]) }, err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, mutate, err := c.open(c.path)
			if err != nil {
				t.Fatal(err)
			}
			if got := h.Path(); got != c.path {
				t.Errorf("Path() = %q, want %q", got, c.path)
			}
			total, inUse := h.PageCounts()
			if c.path == "" && (total != 0 || inUse != 0) {
				t.Errorf("in-memory PageCounts() = %d, %d, want 0, 0", total, inUse)
			}
			if inUse > total {
				t.Errorf("PageCounts() = %d total, %d in use", total, inUse)
			}
			if ri := h.Recovery(); ri != nil {
				t.Errorf("fresh Recovery() = %v, want nil", ri)
			}
			if err := h.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := h.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
			if err := h.Sync(); err == nil {
				t.Error("Sync after Close succeeded")
			}
			if err := h.CheckPages(); err == nil {
				t.Error("CheckPages after Close succeeded")
			}
			if err := mutate(); err == nil {
				t.Error("mutation after Close succeeded")
			}
		})
	}
}
