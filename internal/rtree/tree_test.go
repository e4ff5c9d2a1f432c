package rtree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

func newTestTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	disk := storage.NewDisk(storage.DefaultBlockSize)
	return New(storage.NewPager(disk, -1), cfg)
}

func randItems(n int, seed int64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = geom.Item{
			Rect: geom.NewRect(x, y, x+rng.Float64()*0.05, y+rng.Float64()*0.05),
			ID:   uint32(i),
		}
	}
	return items
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
	items := make([]geom.Item, f+1)
	for i := range items {
		items[i] = geom.Item{Rect: geom.NewRect(0, 0, 1, 1), ID: uint32(i)}
	}
	buf := make([]byte, storage.DefaultBlockSize)
	data, _ := encodeLeafPage(buf, items[:f])
	if v := (nodeView{data: data}); !v.isLeaf() || v.count() != f || v.itemAt(f-1) != items[f-1] {
		t.Fatalf("full node round trip: leaf %v count %d", v.isLeaf(), v.count())
	}
	defer func() {
		if recover() == nil {
			t.Error("encoding an over-full node should panic")
		}
	}()
	encodeLeafPage(buf, items)
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
	items := randItems(2000, 1)
	tr := buildPacked(t, items, 16)
	if tr.Len() != 2000 {
		t.Fatalf("len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		if err := CheckQueryAgainstBruteForce(tr, items, q); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueryEarlyStop(t *testing.T) {
	items := randItems(500, 3)
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
	items := randItems(1000, 4)
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
	items := randItems(256, 5)
	tr := buildPacked(t, items, 4)
	if tr.Height() != 4 {
		t.Errorf("height = %d, want 4", tr.Height())
	}
}

func TestSingleLeafTree(t *testing.T) {
	items := randItems(5, 6)
	tr := buildPacked(t, items, 16)
	if tr.Height() != 1 {
		t.Errorf("height = %d, want 1", tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := CheckQueryAgainstBruteForce(tr, items, geom.NewRect(0, 0, 2, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestItemsRoundTrip(t *testing.T) {
	items := randItems(300, 7)
	tr := buildPacked(t, items, 9)
	got := tr.Items()
	if len(got) != len(items) {
		t.Fatalf("Items len = %d", len(got))
	}
	sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("item %d mismatch", i)
		}
	}
}

func TestUtilizationPacked(t *testing.T) {
	items := randItems(113*10, 8)
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
	items := randItems(512, 9)
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
	items := randItems(256, 10)
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
	items := randItems(100, 11)
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
	tr := buildPacked(t, randItems(100, 11), 8)
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
	b.WriteLeaf(randItems(5, 12))
}

func TestBuilderPackLevelBalances(t *testing.T) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	b := NewBuilder(storage.NewPager(disk, -1), Config{Fanout: 4})
	items := randItems(4*5, 13)
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
	if got, _, _ := tr.RunNearest(0, 0, 3, RunOptions{}); got != nil {
		t.Errorf("k-NN of an empty tree = %v", got)
	}
}

func TestQueryIOEqualsNodesWithoutCache(t *testing.T) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	pager := storage.NewPager(disk, 0)
	b := NewBuilder(pager, Config{Fanout: 8})
	items := randItems(512, 14)
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
	items := randItems(256, 16)
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
	items := randItems(200, 15)
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
