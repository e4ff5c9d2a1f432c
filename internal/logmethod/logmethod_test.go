package logmethod

import (
	"math"
	"math/rand"
	"testing"

	"prtree/internal/bulk"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

func newTree(base int) *Tree {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	pager := storage.NewPager(disk, -1)
	return New(pager, bulk.Options{Fanout: 16, MemoryItems: 4096}, base)
}

func randItems(n int, seed int64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = geom.Item{
			Rect: geom.NewRect(x, y, x+rng.Float64()*0.02, y+rng.Float64()*0.02),
			ID:   uint32(i),
		}
	}
	return items
}

// window runs an unbounded window (contain false) or containment query on
// tr and returns its results and statistics.
func window(tr *Tree, q geom.Rect, contain bool) ([]geom.Item, rtree.QueryStats) {
	var out []geom.Item
	st, _ := tr.RunWindow(q, contain, func(it geom.Item) bool {
		out = append(out, it)
		return true
	}, rtree.RunOptions{})
	return out, st
}

// nearest runs an unbounded k-NN query on tr.
func nearest(tr *Tree, x, y float64, k int) []Neighbor {
	nb, _, _ := tr.RunNearest(x, y, k, rtree.RunOptions{})
	return nb
}

func checkAgainstBruteForce(t *testing.T, tr *Tree, universe []geom.Item, q geom.Rect) {
	t.Helper()
	want := make(map[uint32]bool)
	for _, it := range universe {
		if q.Intersects(it.Rect) {
			want[it.ID] = true
		}
	}
	got := make(map[uint32]bool)
	tr.RunWindow(q, false, func(it geom.Item) bool {
		if got[it.ID] {
			t.Fatalf("duplicate result %d", it.ID)
		}
		got[it.ID] = true
		return true
	}, rtree.RunOptions{})
	if len(got) != len(want) {
		t.Fatalf("query %v: got %d, want %d", q, len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("query %v: missing %d", q, id)
		}
	}
}

func TestInsertAndQuery(t *testing.T) {
	tr := newTree(8)
	items := randItems(500, 1)
	for _, it := range items {
		tr.Insert(it)
	}
	if tr.Len() != 500 {
		t.Fatalf("len = %d", tr.Len())
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		checkAgainstBruteForce(t, tr, items, q)
	}
}

func TestBinaryCounterLevels(t *testing.T) {
	tr := newTree(8)
	// Insert exactly base*2^3 items: levels should telescope, leaving few
	// occupied levels (a binary-counter pattern).
	for i := 0; i < 64; i++ {
		tr.Insert(geom.Item{Rect: geom.PointRect(float64(i), 0), ID: uint32(i)})
	}
	if tr.Levels() > 4 {
		t.Errorf("too many occupied levels: %d", tr.Levels())
	}
	if tr.Len() != 64 {
		t.Errorf("len = %d", tr.Len())
	}
}

func TestDeleteBasic(t *testing.T) {
	tr := newTree(8)
	items := randItems(200, 3)
	for _, it := range items {
		tr.Insert(it)
	}
	for i, it := range items {
		if !tr.Delete(it) {
			t.Fatalf("delete %d failed", i)
		}
		if tr.Delete(it) {
			t.Fatalf("double delete %d succeeded", i)
		}
		if tr.Len() != len(items)-i-1 {
			t.Fatalf("len = %d after %d deletes", tr.Len(), i+1)
		}
	}
	if got, _ := window(tr, geom.NewRect(0, 0, 2, 2), false); len(got) != 0 {
		t.Errorf("emptied tree returned %d items", len(got))
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := newTree(8)
	items := randItems(50, 4)
	for _, it := range items {
		tr.Insert(it)
	}
	if tr.Delete(geom.Item{Rect: geom.NewRect(9, 9, 10, 10), ID: 1234}) {
		t.Error("deleting absent item should fail")
	}
	if tr.Delete(geom.Item{Rect: items[0].Rect, ID: 9999}) {
		t.Error("wrong id should fail")
	}
}

func TestMixedWorkloadMatchesBruteForce(t *testing.T) {
	tr := newTree(16)
	rng := rand.New(rand.NewSource(5))
	live := make(map[uint32]geom.Item)
	next := uint32(0)
	for step := 0; step < 4000; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			x, y := rng.Float64(), rng.Float64()
			it := geom.Item{Rect: geom.NewRect(x, y, x+0.03, y+0.03), ID: next}
			next++
			tr.Insert(it)
			live[it.ID] = it
		} else {
			for _, it := range live {
				if !tr.Delete(it) {
					t.Fatalf("step %d: delete failed", step)
				}
				delete(live, it.ID)
				break
			}
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("len = %d, want %d", tr.Len(), len(live))
	}
	universe := make([]geom.Item, 0, len(live))
	for _, it := range live {
		universe = append(universe, it)
	}
	for i := 0; i < 25; i++ {
		q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		checkAgainstBruteForce(t, tr, universe, q)
	}
}

func TestTombstoneRebuildReclaimsSpace(t *testing.T) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	pager := storage.NewPager(disk, -1)
	tr := New(pager, bulk.Options{Fanout: 16, MemoryItems: 4096}, 16)
	items := randItems(1000, 6)
	for _, it := range items {
		tr.Insert(it)
	}
	peak := disk.PagesInUse()
	for _, it := range items[:900] {
		tr.Delete(it)
	}
	// The half-dead rebuild must have fired, shrinking the footprint.
	if disk.PagesInUse() >= peak {
		t.Errorf("pages in use %d did not shrink from peak %d", disk.PagesInUse(), peak)
	}
	universe := items[900:]
	checkAgainstBruteForce(t, tr, universe, geom.NewRect(0, 0, 2, 2))
}

func TestReviveTombstonedID(t *testing.T) {
	tr := newTree(4)
	it := geom.Item{Rect: geom.NewRect(0.1, 0.1, 0.2, 0.2), ID: 7}
	// Push it into a static level.
	tr.Insert(it)
	for i := 0; i < 10; i++ {
		tr.Insert(geom.Item{Rect: geom.PointRect(float64(i), 5), ID: uint32(100 + i)})
	}
	if !tr.Delete(it) {
		t.Fatal("delete failed")
	}
	tr.Insert(it) // revival path
	if tr.Len() != 11 {
		t.Fatalf("len = %d", tr.Len())
	}
	got, _ := window(tr, it.Rect, false)
	found := false
	for _, g := range got {
		if g.ID == 7 {
			found = true
		}
	}
	if !found {
		t.Error("revived item not found")
	}
}

func TestReviveWithDifferentRectPanics(t *testing.T) {
	tr := newTree(4)
	it := geom.Item{Rect: geom.NewRect(0.1, 0.1, 0.2, 0.2), ID: 7}
	tr.Insert(it)
	for i := 0; i < 10; i++ {
		tr.Insert(geom.Item{Rect: geom.PointRect(float64(i), 5), ID: uint32(100 + i)})
	}
	tr.Delete(it)
	defer func() {
		if recover() == nil {
			t.Error("id reuse with different rect should panic")
		}
	}()
	tr.Insert(geom.Item{Rect: geom.NewRect(0.5, 0.5, 0.6, 0.6), ID: 7})
}

func TestFlushCompactsToOneLevel(t *testing.T) {
	tr := newTree(8)
	items := randItems(300, 7)
	for _, it := range items {
		tr.Insert(it)
	}
	tr.Flush()
	if tr.Levels() > 1 {
		t.Errorf("flush left %d levels", tr.Levels())
	}
	checkAgainstBruteForce(t, tr, items, geom.NewRect(0.2, 0.2, 0.8, 0.8))
}

func TestItemsReturnsLive(t *testing.T) {
	tr := newTree(8)
	items := randItems(100, 8)
	for _, it := range items {
		tr.Insert(it)
	}
	for _, it := range items[:40] {
		tr.Delete(it)
	}
	got := tr.Items()
	if len(got) != 60 {
		t.Fatalf("items = %d", len(got))
	}
	seen := map[uint32]bool{}
	for _, it := range got {
		seen[it.ID] = true
	}
	for _, it := range items[:40] {
		if seen[it.ID] {
			t.Fatalf("deleted item %d still listed", it.ID)
		}
	}
}

func TestQueryEarlyStop(t *testing.T) {
	tr := newTree(8)
	for _, it := range randItems(300, 9) {
		tr.Insert(it)
	}
	count := 0
	tr.RunWindow(geom.NewRect(0, 0, 2, 2), false, func(geom.Item) bool {
		count++
		return count < 7
	}, rtree.RunOptions{})
	if count != 7 {
		t.Errorf("early stop at %d", count)
	}
}

func TestAmortizedInsertIO(t *testing.T) {
	// Total I/O for n inserts should be O(n/B * log^2-ish), far below
	// n * treeHeight that per-item inserts into a static tree would cost.
	disk := storage.NewDisk(storage.DefaultBlockSize)
	pager := storage.NewPager(disk, -1)
	tr := New(pager, bulk.Options{MemoryItems: 1 << 14}, 0)
	items := randItems(20000, 10)
	disk.ResetStats()
	for _, it := range items {
		tr.Insert(it)
	}
	total := disk.Stats().Total()
	perItem := float64(total) / float64(len(items))
	if perItem > 2.0 {
		t.Errorf("amortized insert cost %.2f I/Os per item, want well below 2", perItem)
	}
	if math.IsNaN(perItem) {
		t.Fatal("no I/O recorded")
	}
}

// TestLevelOutsideWindowCostsNoPage: a level's bounding box is recorded when
// it is built (and read once when it is opened), so a window that misses the
// box visits no node of it — it used to read the root, a counted leaf visit
// when the level is one leaf — and k-NN skips a level that lies beyond the
// k-th candidate it already has.
func TestLevelOutsideWindowCostsNoPage(t *testing.T) {
	tr := newTree(8)
	// A level of one leaf along y=0, x in [0, 1], and a buffer far from it.
	for i := 0; i < 8; i++ {
		tr.Insert(geom.Item{Rect: geom.NewRect(float64(i)/8, 0, float64(i)/8+0.05, 0.05), ID: uint32(i)})
	}
	for i := 0; i < 5; i++ {
		tr.Insert(geom.Item{Rect: geom.NewRect(10+float64(i), 10, 10.5+float64(i), 10.5), ID: uint32(100 + i)})
	}
	if tr.Levels() != 1 || tr.BufferLen() != 5 {
		t.Fatalf("set-up: slots %v, buffer %d", tr.LevelSizes(), tr.BufferLen())
	}
	if _, st := window(tr, geom.NewRect(9, 9, 20, 20), false); st.NodesVisited != 0 || st.Results != 5 {
		t.Errorf("window beside the level: %d nodes visited, %d results; want 0 and the 5 buffered", st.NodesVisited, st.Results)
	}
	if _, st := window(tr, geom.NewRect(9, 9, 20, 20), true); st.NodesVisited != 0 || st.Results != 5 {
		t.Errorf("containment beside the level: %d nodes visited, %d results; want 0 and 5", st.NodesVisited, st.Results)
	}
	if _, st := window(tr, geom.NewRect(0, 0, 0.3, 0.3), false); st.NodesVisited != 1 || st.LeavesVisited != 1 || st.Results != 3 {
		t.Errorf("window inside the level: %+v; want its one leaf and 3 results", st)
	}
	c0 := tr.pager.CacheStats()
	nn := nearest(tr, 12, 10.2, 3)
	if len(nn) != 3 || nn[0].Item.ID != 102 {
		t.Fatalf("3 nearest to the buffered cluster: %v", nn)
	}
	if c1 := tr.pager.CacheStats(); c1.Hits != c0.Hits || c1.Misses != c0.Misses {
		t.Errorf("k-NN answered from the buffer read pages: %+v then %+v", c0, c1)
	}
	if nn := nearest(tr, 0.5, 0, 9); len(nn) != 9 || nn[8].Item.ID < 100 {
		t.Errorf("9 nearest from inside the level: %v; want its 8 items, then a buffered one", nn)
	}
}

// TestSwapAdvancesEpoch: the pages a directory swap frees are pinned only by
// the readers that entered before it. Reader A enters, a carry (then a
// rebuild) frees the levels it replaces, reader B enters, A leaves: nothing
// is pinned any more while B is still inside, since B loaded the new state
// and cannot reach those pages. Were the epoch left where it was, B would
// pin them too, and overlapping readers would keep them from reuse for good.
func TestSwapAdvancesEpoch(t *testing.T) {
	tr := newTree(8)
	items := randItems(16, 31)
	for _, it := range items[:8] {
		tr.Insert(it) // one level of 8, the buffer empty and as big
	}
	for _, swap := range []struct {
		name string
		fn   func()
	}{
		{"carry", func() {
			for _, it := range items[8:] {
				tr.Insert(it)
			}
		}},
		{"rebuild", tr.Flush},
	} {
		_, a := tr.enter()
		swap.fn()
		if got := tr.snap.SnapshotStats().PinnedPages; got == 0 {
			t.Fatalf("%s beside reader A pinned no page", swap.name)
		}
		_, b := tr.enter()
		tr.snap.SnapshotLeave(a)
		if st := tr.snap.SnapshotStats(); st.PinnedPages != 0 || st.Readers != 1 {
			t.Errorf("after the %s, with A gone and B inside: %+v; want no page pinned", swap.name, st)
		}
		tr.snap.SnapshotLeave(b)
	}
	checkAgainstBruteForce(t, tr, items, geom.NewRect(0, 0, 2, 2))
}
