package prtree

import (
	"iter"
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
)

func randItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = Item{Rect: NewRect(x, y, x+rng.Float64()*0.02, y+rng.Float64()*0.02), ID: uint32(i)}
	}
	return items
}

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

func TestBulkAndSearch(t *testing.T) {
	items := randItems(5000, 1)
	tree := Bulk(items, nil)
	if tree.Len() != 5000 {
		t.Fatalf("len = %d", tree.Len())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 25; i++ {
		q := NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		want := 0
		for _, it := range items {
			if q.Intersects(it.Rect) {
				want++
			}
		}
		if got, _ := tree.Count(Window(q)); got != want {
			t.Fatalf("query %d: got %d, want %d", i, got, want)
		}
	}
}

func TestAllPublicLoaders(t *testing.T) {
	items := randItems(1000, 3)
	for _, l := range []Loader{PR, Hilbert, Hilbert4D, TGS} {
		tree := BulkWith(l, items, &Options{Fanout: 16, MemoryItems: 4096})
		if tree.Len() != 1000 {
			t.Fatalf("%v: len = %d", l, tree.Len())
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("%v: %v", l, err)
		}
	}
}

func TestQueryEarlyStopAndStats(t *testing.T) {
	tree := Bulk(randItems(2000, 4), &Options{Fanout: 16})
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
	items := randItems(500, 5)
	d := NewDynamic(&Options{Fanout: 8})
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
	tree := BulkWith(PR, randItems(5000, 6), &Options{CacheCapacity: 1})
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
	items := randItems(3000, 7)
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
	d := NewDynamic(&Options{Fanout: 16, MemoryItems: 4096})
	items := randItems(800, 8)
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
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		q := NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		want := 0
		for _, it := range items[300:] {
			if q.Intersects(it.Rect) {
				want++
			}
		}
		if got := d.Search(q); len(got) != want {
			t.Fatalf("dynamic query: got %d, want %d", len(got), want)
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

func TestNilAndZeroOptions(t *testing.T) {
	a := Bulk(randItems(100, 10), nil)
	b := Bulk(randItems(100, 10), &Options{})
	if a.Height() != b.Height() || a.Nodes() != b.Nodes() {
		t.Error("nil and zero options should agree")
	}
}

func TestSearchPointAndContained(t *testing.T) {
	items := randItems(2000, 14)
	tree := Bulk(items, &Options{Fanout: 16})
	x, y := 0.5, 0.5
	wantPoint := 0
	for _, it := range items {
		if it.Rect.ContainsPoint(x, y) {
			wantPoint++
		}
	}
	if got, _ := tree.Count(Point(x, y)); got != wantPoint {
		t.Errorf("Point: got %d, want %d", got, wantPoint)
	}
	q := NewRect(0.2, 0.2, 0.8, 0.8)
	wantCont := 0
	for _, it := range items {
		if q.Contains(it.Rect) {
			wantCont++
		}
	}
	if got, _ := tree.Count(Contained(q)); got != wantCont {
		t.Errorf("Contained: got %d, want %d", got, wantCont)
	}
}

func TestNearestNeighborsPublic(t *testing.T) {
	items := randItems(1000, 15)
	tree := Bulk(items, &Options{Fanout: 16})
	ns := nearest(t, tree, 0.5, 0.5, 7)
	if len(ns) != 7 {
		t.Fatalf("kNN returned %d", len(ns))
	}
	for i := 1; i < len(ns); i++ {
		if ns[i].Dist2 < ns[i-1].Dist2 {
			t.Fatal("kNN results not sorted")
		}
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
	// once, its miss filled under the shard lock.
	for _, capacity := range []int{-1, 0} {
		// The facade treats CacheCapacity 0 as "default" (unbounded), so
		// build the capacity-0 pager explicitly for the paper's
		// nothing-cached measurement mode.
		disk := storage.NewDisk(storage.DefaultBlockSize)
		pager := storage.NewPager(disk, capacity)
		inner := bulk.FromItems(bulk.LoaderPR, pager, items, bulk.Options{})
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
	items := randItems(8000, 21)
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
		empty(l.String()+" external", BulkWith(l, nil, &Options{MemoryItems: 1024}))
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
