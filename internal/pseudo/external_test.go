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

func TestExternalPriorityGroupsAreExtreme(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	items := randItems(20000, 4)
	_, groups := collectExternal(t, items, per, 20*per)
	// The very first emitted group is the root node's xmin priority leaf:
	// it must hold the globally most extreme xmin rectangles.
	first := groups[0]
	if !first.Priority || first.Dir != 0 {
		t.Fatalf("first group: priority=%v dir=%d", first.Priority, first.Dir)
	}
	if len(first.Items) != per {
		t.Fatalf("root xmin leaf holds %d items", len(first.Items))
	}
	worst := first.Items[0].Rect.MinX
	for _, it := range first.Items {
		if it.Rect.MinX > worst {
			worst = it.Rect.MinX
		}
	}
	// Count how many dataset items are strictly more extreme than the
	// worst member: must be < len(first.Items).
	better := 0
	for _, it := range items {
		if it.Rect.MinX < worst {
			better++
		}
	}
	if better >= len(first.Items)+1 {
		t.Errorf("root xmin leaf misses extremes: %d items beat its worst member", better)
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
	// 4 sorts (~4 passes each here) + a few linear passes per round.
	if total > 100*nBlocks {
		t.Errorf("external build cost %d I/Os for %d blocks", total, nBlocks)
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
