package pseudo

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// collectExternal runs BuildExternal and gathers the emitted groups.
func collectExternal(t *testing.T, items []geom.Item, b, m int) (*storage.Disk, []LeafGroup) {
	t.Helper()
	disk := storage.NewDisk(storage.DefaultBlockSize)
	in := storage.NewItemFileFrom(disk, items)
	var groups []LeafGroup
	BuildExternal(in, ExternalConfig{B: b, M: m}, func(lg LeafGroup) {
		// Copy: builder may reuse backing arrays.
		cp := make([]geom.Item, len(lg.Items))
		copy(cp, lg.Items)
		groups = append(groups, LeafGroup{Items: cp, Priority: lg.Priority, Dir: lg.Dir})
	})
	return disk, groups
}

func checkPartition(t *testing.T, items []geom.Item, groups []LeafGroup, b int) {
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

func TestExternalSmallFallsBackToInMemory(t *testing.T) {
	items := randItems(500, 1)
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	_, groups := collectExternal(t, items, 16, 10*per)
	checkPartition(t, items, groups, 16)
}

func TestExternalLargePartition(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	items := randItems(20000, 2)
	m := 20 * per // 2260 records in memory; forces several external rounds
	_, groups := collectExternal(t, items, per, m)
	checkPartition(t, items, groups, per)
}

func TestExternalTinyMemoryManyRounds(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	items := randItems(8000, 3)
	m := 5 * per
	_, groups := collectExternal(t, items, per, m)
	checkPartition(t, items, groups, per)
}

// checkRootLeavesExtreme checks the first four emitted groups of an
// external build: they are the root node's priority leaves, and the leaf
// of direction dir must hold exactly the b most extreme rectangles in that
// direction among those the leaves before it left over — whatever order
// the rectangles reached the heaps in.
func checkRootLeavesExtreme(t *testing.T, items []geom.Item, groups []LeafGroup, b int) {
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
		o := extremeOrder(dir)
		worst := lg.Items[0]
		for _, it := range lg.Items {
			if o.less(worst, it) {
				worst = it
			}
		}
		// The order is strict, so the leaf holds the b most extreme exactly
		// when b-1 of the rectangles still available beat its worst member.
		better := 0
		for _, it := range items {
			if !taken[it.ID] && o.less(it, worst) {
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

func TestExternalPriorityGroupsAreExtreme(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	items := randItems(20000, 4)
	_, groups := collectExternal(t, items, per, 20*per)
	checkRootLeavesExtreme(t, items, groups, per)
}

// runExternal is BuildExternal's external path taken apart, so that a test
// can read the builder afterwards. It returns the builder, the emitted
// groups, and the disk's counters after the sort and at the end.
func runExternal(items []geom.Item, b, m int) (e *externalBuilder, groups []LeafGroup, sorted, done storage.Stats) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	in := storage.NewItemFileFrom(disk, items)
	disk.ResetStats()
	cfg := ExternalConfig{B: b, M: m}
	lists := sortAxes(in, cfg)
	in.Free()
	sorted = disk.Stats()
	e = &externalBuilder{disk: disk, cfg: cfg, emit: func(lg LeafGroup) {
		groups = append(groups, LeafGroup{Items: append([]geom.Item(nil), lg.Items...), Priority: lg.Priority, Dir: lg.Dir})
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
	cfg := ExternalConfig{B: per, M: m}
	e = &externalBuilder{disk: disk, cfg: cfg, emit: func(LeafGroup) {}}
	e.lists = sortAxes(storage.NewItemFileFrom(disk, items), cfg)
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

func TestExternalMostGroupsFull(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	items := randItems(30000, 5)
	_, groups := collectExternal(t, items, per, 30*per)
	full := 0
	for _, lg := range groups {
		if len(lg.Items) == per {
			full++
		}
	}
	if frac := float64(full) / float64(len(groups)); frac < 0.85 {
		t.Errorf("only %.2f of groups are full", frac)
	}
}

func TestExternalIOWithinSortBound(t *testing.T) {
	// The whole build should cost a small constant times the sort cost.
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	n := 30000
	items := randItems(n, 6)
	disk := storage.NewDisk(storage.DefaultBlockSize)
	in := storage.NewItemFileFrom(disk, items)
	disk.ResetStats()
	BuildExternal(in, ExternalConfig{B: per, M: 30 * per}, func(LeafGroup) {})
	total := disk.Stats().Total()
	nBlocks := uint64((n + per - 1) / per)
	// One input scan, four lists through run formation and one merge pass,
	// then two rounds, the second over four lists a region: 7,584 I/Os
	// measured (28.5 per input block; 9,774 before the input was scanned
	// once and in-memory regions got one list), allowed 15 % more.
	if limit := uint64(7584 * 115 / 100); total > limit {
		t.Errorf("external build cost %d I/Os for %d blocks, want at most %d", total, nBlocks, limit)
	}
}

func TestExternalFreesIntermediateFiles(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	items := randItems(12000, 7)
	disk := storage.NewDisk(storage.DefaultBlockSize)
	in := storage.NewItemFileFrom(disk, items)
	BuildExternal(in, ExternalConfig{B: per, M: 12 * per}, func(LeafGroup) {})
	if disk.PagesInUse() != 0 {
		t.Errorf("%d pages leaked after external build", disk.PagesInUse())
	}
}

func TestExternalEquivalentQueryQuality(t *testing.T) {
	// Groups from the external build should give a query-competitive
	// partition: build a flat check — every group's MBR area stays small
	// relative to a random grouping. We verify the partition is usable by
	// running window queries against the union of group members.
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	items := randItems(15000, 8)
	_, groups := collectExternal(t, items, per, 15*per)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		want := 0
		for _, it := range items {
			if q.Intersects(it.Rect) {
				want++
			}
		}
		got := 0
		for _, lg := range groups {
			for _, it := range lg.Items {
				if q.Intersects(it.Rect) {
					got++
				}
			}
		}
		if got != want {
			t.Fatalf("query %d: groups found %d, brute force %d", i, got, want)
		}
	}
}

func TestExternalClusteredData(t *testing.T) {
	// Clustered data (non-uniform) exercises unbalanced grid cells.
	rng := rand.New(rand.NewSource(10))
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	var items []geom.Item
	for c := 0; c < 20; c++ {
		cx, cy := rng.Float64(), rng.Float64()
		for i := 0; i < 600; i++ {
			x := cx + rng.NormFloat64()*1e-4
			y := cy + rng.NormFloat64()*1e-4
			items = append(items, geom.Item{Rect: geom.PointRect(x, y), ID: uint32(len(items))})
		}
	}
	_, groups := collectExternal(t, items, per, 12*per)
	checkPartition(t, items, groups, per)
}

func TestExternalSkewedOneDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	items := make([]geom.Item, 9000)
	for i := range items {
		x := rng.Float64()
		y := math.Pow(rng.Float64(), 9)
		items[i] = geom.Item{Rect: geom.PointRect(x, y), ID: uint32(i)}
	}
	_, groups := collectExternal(t, items, per, 10*per)
	checkPartition(t, items, groups, per)
}

func TestExternalPanicsOnBadConfig(t *testing.T) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	in := storage.NewItemFileFrom(disk, randItems(10, 12))
	defer func() {
		if recover() == nil {
			t.Error("tiny memory should panic")
		}
	}()
	BuildExternal(in, ExternalConfig{B: 16, M: 10}, func(LeafGroup) {})
}

func TestExternalEmptyInput(t *testing.T) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	in := storage.NewItemFileFrom(disk, nil)
	calls := 0
	BuildExternal(in, ExternalConfig{B: 16, M: 4 * storage.ItemsPerBlock(storage.DefaultBlockSize)},
		func(LeafGroup) { calls++ })
	if calls != 0 {
		t.Errorf("empty input emitted %d groups", calls)
	}
}

// allowParallelism raises GOMAXPROCS so the worker pool actually fans out
// even on single-CPU machines (workers are clamped to GOMAXPROCS).
func allowParallelism() func() {
	old := runtime.GOMAXPROCS(4)
	return func() { runtime.GOMAXPROCS(old) }
}

// TestExternalSerialParallelEquivalence: the grid construction must emit
// the same leaf groups in the same order, with identical block-I/O counts,
// at every worker count.
func TestExternalSerialParallelEquivalence(t *testing.T) {
	defer allowParallelism()()
	items := randItems(12000, 3)
	run := func(workers int) (groups []LeafGroup, st storage.Stats) {
		d := storage.NewDisk(storage.DefaultBlockSize)
		in := storage.NewItemFileFrom(d, items)
		d.ResetStats()
		BuildExternal(in, ExternalConfig{B: 16, M: 1024, Workers: workers}, func(lg LeafGroup) {
			cp := LeafGroup{Items: append([]geom.Item(nil), lg.Items...), Priority: lg.Priority, Dir: lg.Dir}
			groups = append(groups, cp)
		})
		return groups, d.Stats()
	}
	sGroups, sStats := run(1)
	for _, workers := range []int{2, 4} {
		pGroups, pStats := run(workers)
		if pStats != sStats {
			t.Fatalf("workers=%d: stats %v != serial %v", workers, pStats, sStats)
		}
		if len(pGroups) != len(sGroups) {
			t.Fatalf("workers=%d: %d groups != serial %d", workers, len(pGroups), len(sGroups))
		}
		for i := range pGroups {
			p, s := pGroups[i], sGroups[i]
			if p.Priority != s.Priority || p.Dir != s.Dir || len(p.Items) != len(s.Items) {
				t.Fatalf("workers=%d: group %d header differs", workers, i)
			}
			for j := range p.Items {
				if p.Items[j] != s.Items[j] {
					t.Fatalf("workers=%d: group %d item %d differs", workers, i, j)
				}
			}
		}
	}
}
