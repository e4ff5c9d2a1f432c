package extmem

import (
	"math/rand"
	"sync"
	"testing"

	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/pseudo"
	"prtree/internal/storage"
)

// randItems and western are the pseudo-PR-tree tests' inputs; checkPartition
// and checkRootLeavesExtreme the checks those tests (internal/pseudo) hold
// BuildPseudo's output to, for the tests here that read the builder's
// state as well.

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

var western = sync.OnceValue(func() []geom.Item { return dataset.Western(300000, 2004) })

func checkPartition(t *testing.T, items []geom.Item, groups []pseudo.LeafGroup, b int) {
	t.Helper()
	seen := make(map[uint32]geom.Rect)
	for _, lg := range groups {
		if len(lg.Items) == 0 {
			t.Fatal("empty group emitted")
		}
		if len(lg.Items) > b {
			t.Fatalf("group of %d exceeds capacity %d", len(lg.Items), b)
		}
		for _, it := range lg.Items {
			if _, dup := seen[it.ID]; dup {
				t.Fatalf("item %d emitted twice", it.ID)
			}
			seen[it.ID] = it.Rect
		}
	}
	if len(seen) != len(items) {
		t.Fatalf("groups cover %d of %d items", len(seen), len(items))
	}
	for _, it := range items {
		if r, ok := seen[it.ID]; !ok || r != it.Rect {
			t.Fatalf("item %d missing or corrupted", it.ID)
		}
	}
}

// checkRootLeavesExtreme checks the first four emitted groups of an
// external build: they are the root node's priority leaves, and the leaf
// of direction dir must hold exactly the b most extreme rectangles in that
// direction among those the leaves before it left over — whatever order
// the rectangles reached the heaps in.
func checkRootLeavesExtreme(t *testing.T, items []geom.Item, groups []pseudo.LeafGroup, b int) {
	t.Helper()
	taken := make(map[uint32]bool)
	for dir := 0; dir < 4; dir++ {
		lg := groups[dir]
		if !lg.Priority || lg.Dir != dir {
			t.Fatalf("group %d: priority=%v dir=%d", dir, lg.Priority, lg.Dir)
		}
		if len(lg.Items) != b {
			t.Fatalf("root leaf %d holds %d items, want %d", dir, len(lg.Items), b)
		}
		o := pseudo.ExtremeOrder(dir)
		worst := lg.Items[0]
		for _, it := range lg.Items {
			if o.Less(worst, it) {
				worst = it
			}
		}
		// The order is strict, so the leaf holds the b most extreme exactly
		// when b-1 of the rectangles still available beat its worst member.
		better := 0
		for _, it := range items {
			if !taken[it.ID] && o.Less(it, worst) {
				better++
			}
		}
		if better != b-1 {
			t.Errorf("root leaf %d: %d available rectangles beat its worst member, want %d", dir, better, b-1)
		}
		for _, it := range lg.Items {
			taken[it.ID] = true
		}
	}
}

// runExternal is BuildPseudo's external path taken apart, so that a test
// can read the builder afterwards. It returns the builder, the emitted
// groups, and the disk's counters after the sort and at the end.
func runExternal(items []geom.Item, b, m int) (e *externalBuilder, groups []pseudo.LeafGroup, sorted, done storage.Stats) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	in := NewItemFileFrom(disk, items)
	disk.ResetStats()
	lists := sortAxes(in, m)
	in.Free()
	sorted = disk.Stats()
	e = &externalBuilder{disk: disk, b: b, m: m, emit: func(lg pseudo.LeafGroup) {
		groups = append(groups, pseudo.LeafGroup{Items: append([]geom.Item(nil), lg.Items...), Priority: lg.Priority, Dir: lg.Dir})
	}}
	e.recurse(lists, 0)
	return e, groups, sorted, disk.Stats()
}

// diagonal returns n rectangles whose four coordinates all rise with the
// id — equal squares along the diagonal, or points on it when side is 0.
// All four sorted lists are then the same list, and an in-order scan of
// any of them is the worst order there is for two of the four heaps of
// every node: each rectangle beats all before it.
func diagonal(n int, side float64) []geom.Item {
	items := make([]geom.Item, n)
	for i := range items {
		v := float64(i)
		items[i] = geom.Item{Rect: geom.NewRect(v, v, v+side, v+side), ID: uint32(i)}
	}
	return items
}

// TestExternalFillOrder: the priority heaps are fed out of order, so the
// number of rectangles a heap admits and later evicts in one external
// round is about 4B log(N/B) a kd node whatever N is (30,000 to 35,000
// here) — where a scan of the xmin list costs more than 2N of them on the
// benchmark's dataset, and 2N per kd level on the diagonals — and what the
// heaps end up holding is what it must be.
func TestExternalFillOrder(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	cases := []struct {
		name  string
		items []geom.Item
		m     int
	}{
		{"western", western(), 65536},
		{"diagonal squares", diagonal(100000, 1), 30000},
		{"diagonal points", diagonal(100000, 0), 30000},
	}
	for _, c := range cases {
		e, groups, _, _ := runExternal(c.items, per, c.m)
		if len(e.regions) < 2 {
			t.Fatalf("%s: no external round ran", c.name)
		}
		if n := len(c.items); e.displaced >= n/2 {
			t.Errorf("%s: %d heap displacements for %d rectangles, want fewer than N/2", c.name, e.displaced, n)
		}
		checkPartition(t, c.items, groups, per)
		checkRootLeavesExtreme(t, c.items, groups, per)
	}
}

// TestExternalOneListRegions: a region that fits in memory is built from
// its xmin list, so it is handed no other. With N <= 4M every region of the
// first round fits, and after the sort the load writes the regions' xmin
// lists and nothing else; a round whose regions need another round still
// hands each all four orderings.
func TestExternalOneListRegions(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	blocks := func(n int) int { return (n + per - 1) / per }

	items := randItems(9000, 13)
	m := 20 * per // 2260: N just under 4M
	e, groups, sorted, done := runExternal(items, per, m)
	checkPartition(t, items, groups, per)
	// The builder still holds the state of its only round: route every
	// rectangle that no priority leaf took, as distribute did.
	placed := e.placedIDs()
	regionLen := make([]int, len(e.regions))
	for _, it := range items {
		if !placed[it.ID] {
			regionLen[e.routeToRegion(it)]++
		}
	}
	want := 0
	for i, n := range regionLen {
		if e.regionCounts[i] > m {
			t.Fatalf("region %d holds %d > M records: not the one-round load this test wants", i, e.regionCounts[i])
		}
		want += blocks(n)
	}
	if got := int(done.Writes - sorted.Writes); got != want {
		t.Errorf("after the sort the load wrote %d blocks, want the %d of the regions' xmin lists", got, want)
	}
	// Lists 1-3 are read for the grid's quantiles and the split slabs, never
	// scanned: two full passes over list 0 (cell counts, heap fill), one to
	// distribute it, and one over each region.
	in := blocks(len(items))
	if got := int(done.Reads - sorted.Reads); got > 3*in+want+in {
		t.Errorf("after the sort the load read %d blocks for an input of %d", got, in)
	}

	// First round of a load that needs two: every region is above M.
	items = randItems(30000, 14)
	disk := storage.NewDisk(storage.DefaultBlockSize)
	e = &externalBuilder{disk: disk, b: per, m: m, emit: func(pseudo.LeafGroup) {}}
	e.lists = sortAxes(NewItemFileFrom(disk, items), m)
	n := len(items)
	e.buildGrid(n)
	root := e.buildSubtree(fullRegion(), n, 0, e.kdLevels(n))
	e.fillPriorityLeaves(root)
	for i, lists := range e.distribute(e.placedIDs()) {
		if e.regionCounts[i] <= m {
			t.Fatalf("region %d holds %d <= M records: not the two-round load this test wants", i, e.regionCounts[i])
		}
		for d, f := range lists {
			if f == nil || f.Len() != lists[0].Len() || f.Len() <= m {
				t.Fatalf("region %d of %d records: list %d is missing or short", i, e.regionCounts[i], d)
			}
			prev := negInfKey()
			for _, it := range f.ReadAll() {
				if k := itemKey(it, d); !prev.less(k) {
					t.Fatalf("region %d list %d is not sorted on its axis", i, d)
				} else {
					prev = k
				}
			}
		}
	}
}
