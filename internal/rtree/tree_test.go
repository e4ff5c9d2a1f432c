package rtree

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

func newTestTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	disk := storage.NewDisk(storage.DefaultBlockSize)
	return New(storage.NewPager(disk, -1), cfg)
}

// buildPacked bulk-loads items in slice order with full leaves — a trivial
// loader used to exercise the container independently of the real loaders.
func buildPacked(tb testing.TB, items []geom.Item, fanout int) *Tree {
	tb.Helper()
	disk := storage.NewDisk(storage.DefaultBlockSize)
	b := NewBuilder(storage.NewPager(disk, -1), Config{Fanout: fanout})
	fanout = b.Fanout()
	var leaves []ChildEntry
	for lo := 0; lo < len(items); lo += fanout {
		hi := lo + fanout
		if hi > len(items) {
			hi = len(items)
		}
		leaves = append(leaves, b.WriteLeaf(items[lo:hi]))
	}
	return b.FinishPacked(leaves)
}

func TestMaxFanoutMatchesPaper(t *testing.T) {
	if got := MaxFanout(storage.DefaultBlockSize); got != 113 {
		t.Errorf("MaxFanout(4096) = %d, want 113", got)
	}
}

// TestLayoutTable pins the page layout: a 4-byte header and 36-byte
// entries, so the fanout per block size is (block-4)/36.
func TestLayoutTable(t *testing.T) {
	for _, c := range []struct{ block, fanout int }{
		{512, 14}, {1024, 28}, {4096, 113}, {8192, 227},
	} {
		if got := MaxFanout(c.block); got != c.fanout {
			t.Errorf("MaxFanout(%d) = %d, want %d", c.block, got, c.fanout)
		}
	}
	if headerSize != 4 || entrySize != 36 {
		t.Errorf("header %d bytes, entries %d bytes; want 4 and 36", headerSize, entrySize)
	}
}

func TestNodeCodecRoundTrip(t *testing.T) {
	children := make([]ChildEntry, 50)
	for i := range children {
		children[i] = ChildEntry{Rect: geom.NewRect(float64(i), 0, float64(i)+1, 2), Page: storage.PageID(i * 7)}
	}
	buf := make([]byte, storage.DefaultBlockSize)
	data, mbr := encodeInternalPage(buf, children)
	v := nodeView{data: data}
	if v.isLeaf() || v.count() != len(children) {
		t.Fatalf("kind/count mismatch")
	}
	for i, c := range children {
		if v.rectAt(i) != c.Rect || storage.PageID(v.refAt(i)) != c.Page {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	if mbr != v.mbr() || mbr != geom.NewRect(0, 0, 50, 2) {
		t.Fatalf("mbr %v, view mbr %v", mbr, v.mbr())
	}
}

func TestNodeCodecFullFanout(t *testing.T) {
	f := MaxFanout(storage.DefaultBlockSize)
	items := zoo.Copies(f+1, geom.NewRect(0, 0, 1, 1))
	buf := make([]byte, storage.DefaultBlockSize)
	data, _ := encodeItemsPage(buf, kindLeaf, items[:f])
	if v := (nodeView{data: data}); !v.isLeaf() || v.count() != f || v.itemAt(f-1) != items[f-1] {
		t.Fatalf("full node round trip: leaf %v count %d", v.isLeaf(), v.count())
	}
	defer func() {
		if recover() == nil {
			t.Error("encoding an over-full node should panic")
		}
	}()
	encodeItemsPage(buf, kindLeaf, items)
}

func TestEmptyTree(t *testing.T) {
	tr := newTestTree(t, Config{})
	if tr.Len() != 0 || tr.Height() != 0 || tr.Nodes() != 0 || tr.Root() != storage.NilPage {
		t.Errorf("empty tree: %v", tr)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("empty tree invalid: %v", err)
	}
	st := window(tr, geom.NewRect(0, 0, 1, 1), nil)
	if st.Results != 0 || st.NodesVisited != 0 {
		t.Errorf("empty query stats: %+v", st)
	}
	walked := 0
	tr.Walk(func(storage.PageID, int, bool, []geom.Item) { walked++ })
	if walked != 0 {
		t.Errorf("Walk of an empty tree visited %d pages", walked)
	}
}

func TestPackedBuildAndQuery(t *testing.T) {
	items := zoo.Uniform(2000, 0.05, 1)
	tr := buildPacked(t, items, 16)
	if tr.Len() != 2000 {
		t.Fatalf("len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	for _, q := range zoo.Windows(50, 2) {
		if err := zoo.Expect(items, zoo.Query{Rect: q}).CheckScan(func(f func(geom.Item) bool) { window(tr, q, f) }); err != nil {
			t.Fatalf("window %v: %v", q, err)
		}
	}
}

func TestQueryEarlyStop(t *testing.T) {
	items := zoo.Uniform(500, 0.05, 3)
	tr := buildPacked(t, items, 8)
	count := 0
	window(tr, geom.NewRect(0, 0, 1, 1), func(geom.Item) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop visited %d results", count)
	}
}

func TestQueryStatsLeafAccounting(t *testing.T) {
	items := zoo.Uniform(1000, 0.05, 4)
	tr := buildPacked(t, items, 10)
	st := window(tr, geom.NewRect(0, 0, 1.1, 1.1), nil)
	if st.Results != 1000 {
		t.Errorf("full query results = %d", st.Results)
	}
	if st.LeavesVisited != 100 {
		t.Errorf("full query should visit all 100 leaves, got %d", st.LeavesVisited)
	}
	if st.NodesVisited != st.LeavesVisited+st.InternalVisited {
		t.Error("visit accounting inconsistent")
	}
}

func TestHeightGrowth(t *testing.T) {
	// fanout 4: 4^h leaves; 256 items over full leaves of 4 -> 64 leaves ->
	// 16 -> 4 -> 1: height 4.
	items := zoo.Uniform(256, 0.05, 5)
	tr := buildPacked(t, items, 4)
	if tr.Height() != 4 {
		t.Errorf("height = %d, want 4", tr.Height())
	}
}

func TestSingleLeafTree(t *testing.T) {
	items := zoo.Uniform(5, 0.05, 6)
	tr := buildPacked(t, items, 16)
	if tr.Height() != 1 {
		t.Errorf("height = %d, want 1", tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	w := geom.NewRect(0, 0, 2, 2)
	if err := zoo.Expect(items, zoo.Query{Rect: w}).CheckScan(func(f func(geom.Item) bool) { window(tr, w, f) }); err != nil {
		t.Fatalf("window %v: %v", w, err)
	}
}

func TestItemsRoundTrip(t *testing.T) {
	items := zoo.Uniform(300, 0.05, 7)
	tr := buildPacked(t, items, 9)
	if got := zoo.Sorted(tr.Items()); !slices.Equal(got, items) {
		t.Fatalf("Items returned %d items, not the %d loaded", len(got), len(items))
	}
}

func TestUtilizationPacked(t *testing.T) {
	items := zoo.Uniform(113*10, 0.05, 8)
	tr := buildPacked(t, items, 0) // default fanout 113
	leaf, _ := tr.Utilization()
	if leaf < 0.99 {
		t.Errorf("packed leaf utilization = %.3f, want > 0.99", leaf)
	}
}

func TestPinInternalMakesQueriesLeafOnly(t *testing.T) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	pager := storage.NewPager(disk, 0) // no LRU: only pins persist
	b := NewBuilder(pager, Config{Fanout: 8})
	items := zoo.Uniform(512, 0.05, 9)
	var leaves []ChildEntry
	for lo := 0; lo < len(items); lo += 8 {
		leaves = append(leaves, b.WriteLeaf(items[lo:lo+8]))
	}
	tr := b.FinishPacked(leaves)
	pinned := tr.PinInternal()
	if pinned == 0 {
		t.Fatal("expected internal nodes to pin")
	}
	disk.ResetStats()
	st := window(tr, geom.NewRect(0.2, 0.2, 0.4, 0.4), nil)
	reads := disk.Stats().Reads
	if int(reads) != st.LeavesVisited {
		t.Errorf("disk reads %d != leaves visited %d with pinned internals", reads, st.LeavesVisited)
	}
}

func TestWalkLevels(t *testing.T) {
	items := zoo.Uniform(256, 0.05, 10)
	tr := buildPacked(t, items, 4)
	levelKind := map[int]bool{}
	tr.Walk(func(_ storage.PageID, level int, isLeaf bool, _ []geom.Item) {
		if isLeaf != (level == 0) {
			t.Fatalf("leaf flag mismatch at level %d", level)
		}
		levelKind[level] = true
	})
	for l := 0; l < tr.Height(); l++ {
		if !levelKind[l] {
			t.Errorf("no node seen at level %d", l)
		}
	}
}

func TestValidateDetectsBadMBR(t *testing.T) {
	items := zoo.Uniform(100, 0.05, 11)
	tr := buildPacked(t, items, 8)
	// Corrupt the root: shrink its first entry's rect.
	root := tr.readView(tr.root)
	if root.isLeaf() {
		t.Skip("tree too small")
	}
	page := append([]byte(nil), root.data...)
	storage.EncodeItem(page[root.entryOff(0):], geom.Item{Rect: geom.PointRect(0, 0), ID: root.refAt(0)})
	tr.Pager().Write(tr.root, page)
	if err := tr.Validate(); err == nil {
		t.Error("validate should detect corrupted MBR")
	}
}

// TestValidateRejectsCompressedPage: Validate reports a page of the
// compressed layout anywhere in the tree, not only at the root Open checks.
func TestValidateRejectsCompressedPage(t *testing.T) {
	tr := buildPacked(t, zoo.Uniform(100, 0.05, 11), 8)
	leaf := storage.PageID(tr.readView(tr.root).refAt(0))
	dev := tr.Pager().Backend()
	page := append([]byte(nil), dev.PeekNoCopy(leaf)...)
	page[1] = 1
	tr.Pager().Write(leaf, page)
	if err := tr.Validate(); !errors.Is(err, errCompressedLayout) {
		t.Fatalf("Validate = %v, want errCompressedLayout", err)
	}
}

func TestBuilderRejectsBadCounts(t *testing.T) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	b := NewBuilder(storage.NewPager(disk, -1), Config{Fanout: 4})
	defer func() {
		if recover() == nil {
			t.Error("oversized leaf should panic")
		}
	}()
	b.WriteLeaf(zoo.Uniform(5, 0.05, 12))
}

func TestBuilderPackLevelBalances(t *testing.T) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	b := NewBuilder(storage.NewPager(disk, -1), Config{Fanout: 4})
	items := zoo.Uniform(4*5, 0.05, 13)
	var leaves []ChildEntry
	for lo := 0; lo < len(items); lo += 4 {
		leaves = append(leaves, b.WriteLeaf(items[lo:lo+4]))
	}
	// 5 leaves with fanout 4 -> 2 groups of 3+2, not 4+1.
	packed := b.PackLevel(leaves)
	if len(packed) != 2 {
		t.Fatalf("groups = %d", len(packed))
	}
	tr := b.Finish(b.WriteInternal(packed), 3)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if cnt := tr.readView(packed[0].Page).count(); cnt != 3 && cnt != 2 {
		t.Errorf("unbalanced group of %d", cnt)
	}
}

// TestFinishEmpty: a builder sealed over nothing leaves the one empty tree
// New makes — no page, height 0 — and it reads as empty everywhere.
func TestFinishEmpty(t *testing.T) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	b := NewBuilder(storage.NewPager(disk, -1), Config{})
	tr := b.FinishPacked(nil)
	if tr.Len() != 0 || tr.Height() != 0 || tr.Nodes() != 0 || tr.Root() != storage.NilPage || disk.NumPages() != 0 {
		t.Errorf("empty packed tree: %v, root %d, %d pages", tr, tr.Root(), disk.NumPages())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if st := window(tr, geom.NewRect(0, 0, 1, 1), nil); st != (QueryStats{}) {
		t.Errorf("a query of an empty tree did %+v", st)
	}
	if got, _, _ := tr.AppendNearest(nil, 0, 0, 3, RunOptions{}); got != nil {
		t.Errorf("k-NN of an empty tree = %v", got)
	}
}

func TestQueryIOEqualsNodesWithoutCache(t *testing.T) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	pager := storage.NewPager(disk, 0)
	b := NewBuilder(pager, Config{Fanout: 8})
	items := zoo.Uniform(512, 0.05, 14)
	var leaves []ChildEntry
	for lo := 0; lo < len(items); lo += 8 {
		leaves = append(leaves, b.WriteLeaf(items[lo:lo+8]))
	}
	tr := b.FinishPacked(leaves)
	disk.ResetStats()
	st := window(tr, geom.NewRect(0.1, 0.1, 0.3, 0.3), nil)
	if got := disk.Stats().Reads; int(got) != st.NodesVisited {
		t.Errorf("uncached reads %d != nodes visited %d", got, st.NodesVisited)
	}
}

func TestReleaseResetsCounters(t *testing.T) {
	items := zoo.Uniform(256, 0.05, 16)
	tr := buildPacked(t, items, 4)
	if tr.Height() < 2 || tr.Nodes() < 2 {
		t.Fatalf("test tree too small: %v", tr)
	}
	disk := tr.Pager().Backend().(*storage.Disk)
	inUse := disk.PagesInUse()
	tr.Release()
	if tr.Len() != 0 || tr.Nodes() != 0 || tr.Height() != 0 {
		t.Errorf("released tree reports items=%d nodes=%d height=%d, want all 0",
			tr.Len(), tr.Nodes(), tr.Height())
	}
	if tr.Root() != storage.NilPage {
		t.Errorf("released root = %d, want NilPage", tr.Root())
	}
	if freed := inUse - disk.PagesInUse(); freed <= 0 {
		t.Errorf("Release freed %d pages", freed)
	}
	if m := tr.MBR(); m.Valid() {
		t.Errorf("released tree MBR = %v, want invalid (empty) rect", m)
	}
}

func TestMBREmptyTree(t *testing.T) {
	tr := newTestTree(t, Config{})
	if m := tr.MBR(); m.Valid() {
		t.Errorf("empty tree MBR = %v, want invalid (empty) rect", m)
	}
}

func TestTreeMBRCoversAll(t *testing.T) {
	items := zoo.Uniform(200, 0.05, 15)
	tr := buildPacked(t, items, 8)
	m := tr.MBR()
	for _, it := range items {
		if !m.Contains(it.Rect) {
			t.Fatalf("tree MBR %v misses %v", m, it.Rect)
		}
	}
}

// window runs a plain window query and returns its stats.
func window(tr *Tree, q geom.Rect, fn func(geom.Item) bool) QueryStats {
	st, _ := tr.RunWindow(q, false, fn, RunOptions{})
	return st
}

// windowItems returns every item a plain window query reports, in
// traversal order.
func windowItems(tr *Tree, q geom.Rect) []geom.Item {
	var out []geom.Item
	window(tr, q, func(it geom.Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

// TestExpectedLeavesMatchesMonteCarlo holds ExpectedLeaves to the mean
// leaf count of random windows placed as it assumes, within four standard
// errors of that mean, for a wide window and a square one that reach the
// world's edge. Its three sums are held to the leaves themselves.
func TestExpectedLeavesMatchesMonteCarlo(t *testing.T) {
	// Sort-tile-recursive order: 15 slabs by x, each by y, so that leaves
	// are small and the windows' edges cut through them.
	items := zoo.Uniform(3000, 0.05, 21)
	sort.Slice(items, func(i, j int) bool { return items[i].Rect.MinX < items[j].Rect.MinX })
	for lo := 0; lo < len(items); lo += 200 {
		slab := items[lo:min(lo+200, len(items))]
		sort.Slice(slab, func(i, j int) bool { return slab[i].Rect.MinY < slab[j].Rect.MinY })
	}
	tree := buildPacked(t, items, 20)
	world := geom.ItemsMBR(items)
	var leaves int
	var area, half float64
	tree.Walk(func(_ storage.PageID, _ int, isLeaf bool, entries []geom.Item) {
		if isLeaf {
			m := geom.ItemsMBR(entries)
			leaves, area, half = leaves+1, area+m.Area(), half+m.Perimeter()
		}
	})
	rng := rand.New(rand.NewSource(2004))
	for _, c := range []struct{ w, h float64 }{
		{0.3 * world.Width(), 0.05 * world.Height()},
		{0.1 * world.Width(), 0.1 * world.Height()},
	} {
		got := ExpectedLeaves(tree, world, c.w, c.h)
		if got.Leaves != leaves || got.Area != area || got.HalfPerimeter != half {
			t.Errorf("%gx%g: sums %d / %g / %g, the leaves hold %d / %g / %g",
				c.w, c.h, got.Leaves, got.Area, got.HalfPerimeter, leaves, area, half)
		}
		const windows = 4000
		var sum, sumSq float64
		for range windows {
			x := world.MinX + rng.Float64()*(world.Width()-c.w)
			y := world.MinY + rng.Float64()*(world.Height()-c.h)
			st, err := tree.RunWindow(geom.NewRect(x, y, x+c.w, y+c.h), false, func(geom.Item) bool { return true }, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			n := float64(st.LeavesVisited)
			sum, sumSq = sum+n, sumSq+n*n
		}
		mean := sum / windows
		stderr := math.Sqrt((sumSq/windows - mean*mean) / (windows - 1))
		t.Logf("%gx%g: expected %.3f leaves, %d windows met %.3f ± %.3f", c.w, c.h, got.Expected, windows, mean, stderr)
		if math.Abs(got.Expected-mean) > 4*stderr {
			t.Errorf("%gx%g: expected %.3f leaves, %d windows met %.3f ± %.3f", c.w, c.h, got.Expected, windows, mean, stderr)
		}
	}
}
