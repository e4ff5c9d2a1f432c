package extmem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/pseudo"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// The tests of the external grid construction, BuildPseudo: those that
// read its output only, and those that read the builder's state too.
// checkPartition and checkRootLeavesExtreme are the checks both hold its
// output to.

var western = sync.OnceValue(func() []geom.Item { return dataset.Western(300000, 2004) })

func checkPartition(t *testing.T, items []geom.Item, groups []pseudo.LeafGroup, b int) {
	t.Helper()
	var all []geom.Item
	for _, lg := range groups {
		if len(lg.Items) == 0 || len(lg.Items) > b {
			t.Fatalf("group of %d items, capacity %d", len(lg.Items), b)
		}
		all = append(all, lg.Items...)
	}
	if !slices.Equal(zoo.Sorted(all), zoo.Sorted(items)) {
		t.Fatalf("groups hold %d items, not the %d input items once each", len(all), len(items))
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
		// An in-order scan of a diagonal's one sorted list is the worst
		// order for two of the four heaps of every node.
		{"diagonal squares", zoo.Diagonal(100000, 1), 30000},
		{"diagonal points", zoo.Diagonal(100000, 0), 30000},
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

	items := zoo.Uniform(9000, 0.02, 13)
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
	items = zoo.Uniform(30000, 0.02, 14)
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

// collectExternal runs BuildPseudo and gathers the emitted groups.
func collectExternal(t *testing.T, items []geom.Item, b, m int) (*storage.Disk, []pseudo.LeafGroup) {
	t.Helper()
	disk := storage.NewDisk(storage.DefaultBlockSize)
	in := NewItemFileFrom(disk, items)
	var groups []pseudo.LeafGroup
	BuildPseudo(in, b, m, func(lg pseudo.LeafGroup) {
		// Copy: builder may reuse backing arrays.
		cp := make([]geom.Item, len(lg.Items))
		copy(cp, lg.Items)
		groups = append(groups, pseudo.LeafGroup{Items: cp, Priority: lg.Priority, Dir: lg.Dir})
	})
	return disk, groups
}

func TestExternalSmallFallsBackToInMemory(t *testing.T) {
	items := zoo.Uniform(500, 0.02, 1)
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	_, groups := collectExternal(t, items, 16, 10*per)
	checkPartition(t, items, groups, 16)
}

func TestExternalLargePartition(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	items := zoo.Uniform(20000, 0.02, 2)
	m := 20 * per // 2260 records in memory; forces several external rounds
	_, groups := collectExternal(t, items, per, m)
	checkPartition(t, items, groups, per)
}

func TestExternalTinyMemoryManyRounds(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	items := zoo.Uniform(8000, 0.02, 3)
	m := 5 * per
	_, groups := collectExternal(t, items, per, m)
	checkPartition(t, items, groups, per)
}

func TestExternalPriorityGroupsAreExtreme(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	items := zoo.Uniform(20000, 0.02, 4)
	_, groups := collectExternal(t, items, per, 20*per)
	checkRootLeavesExtreme(t, items, groups, per)
}

func TestExternalMostGroupsFull(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	items := zoo.Uniform(30000, 0.02, 5)
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
	items := zoo.Uniform(n, 0.02, 6)
	disk := storage.NewDisk(storage.DefaultBlockSize)
	in := NewItemFileFrom(disk, items)
	disk.ResetStats()
	BuildPseudo(in, per, 30*per, func(pseudo.LeafGroup) {})
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
	items := zoo.Uniform(12000, 0.02, 7)
	disk := storage.NewDisk(storage.DefaultBlockSize)
	in := NewItemFileFrom(disk, items)
	BuildPseudo(in, per, 12*per, func(pseudo.LeafGroup) {})
	if disk.PagesInUse() != 0 {
		t.Errorf("%d pages leaked after external build", disk.PagesInUse())
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
	in := NewItemFileFrom(disk, zoo.Uniform(10, 0.02, 12))
	defer func() {
		if recover() == nil {
			t.Error("tiny memory should panic")
		}
	}()
	BuildPseudo(in, 16, 10, func(pseudo.LeafGroup) {})
}

func TestExternalEmptyInput(t *testing.T) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	in := NewItemFileFrom(disk, nil)
	calls := 0
	BuildPseudo(in, 16, 4*storage.ItemsPerBlock(storage.DefaultBlockSize), func(pseudo.LeafGroup) { calls++ })
	if calls != 0 {
		t.Errorf("empty input emitted %d groups", calls)
	}
}

// TestExternalLeafSetGolden pins the leaf groups — members and emission
// order — to digests computed at commit a134b71, the last one whose
// external build sorted four times, handed every region four lists and
// filled the priority heaps in xmin order. Only the order of records
// inside the priority leaves of external rounds may differ from that
// commit; the digest leaves exactly that out. The last case is the
// benchmark's set-up as a default-budget facade load builds it: the exact
// in-memory construction over the whole set (the external path takes it
// for an input within M); on the benchmark its tree reads 5 % fewer leaves
// a query than the external round's.
func TestExternalLeafSetGolden(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	cases := []struct {
		name   string
		items  []geom.Item
		b, m   int
		groups int
		digest string
	}{
		{name: "one round", items: zoo.Uniform(6000, 0.02, 21), b: per, m: 2000, groups: 56, digest: "c69f7829cddbf19f"},
		{name: "two rounds", items: zoo.Uniform(30000, 0.02, 23), b: per, m: 20 * per, groups: 268, digest: "b03ababfd020ca81"},
		{name: "many rounds", items: zoo.Uniform(20000, 0.02, 22), b: 16, m: 4 * per, groups: 1277, digest: "a26d63c0d4038a0f"},
		{name: "duplicate-key fallback", items: zoo.Twins(3000), b: per, m: 8 * per, groups: 27, digest: "8e155cf29d13942e"},
		// The benchmark's set-up: one round at the default M.
		{name: "western/M=65536", items: western(), b: per, m: 65536, groups: 1916, digest: "d2666d6bc2720217"},
		{name: "western/in-memory", items: western(), b: per, m: len(western()), groups: 1912, digest: "2c0ba6c4cc730a3f"},
	}
	for _, c := range cases {
		disk := storage.NewDisk(storage.DefaultBlockSize)
		in := NewItemFileFrom(disk, c.items)
		var groups []pseudo.LeafGroup
		BuildPseudo(in, c.b, c.m, func(lg pseudo.LeafGroup) {
			groups = append(groups, pseudo.LeafGroup{Items: append([]geom.Item(nil), lg.Items...)})
		})
		if got := leafSetDigest(groups); got != c.digest || len(groups) != c.groups {
			t.Errorf("%s: %d groups with digest %s, want %d with %s", c.name, len(groups), got, c.groups, c.digest)
		}
	}
}

// leafSetDigest hashes what the construction decides and nothing else: for
// each emitted group in emission order, its size and its member ids in
// ascending order (u32-LE each, sha256, first 8 bytes). The order of
// records inside a group is deliberately not part of it.
func leafSetDigest(groups []pseudo.LeafGroup) string {
	h := sha256.New()
	var w [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(w[:], v)
		h.Write(w[:])
	}
	for _, lg := range groups {
		ids := make([]uint32, len(lg.Items))
		for i, it := range lg.Items {
			ids[i] = it.ID
		}
		slices.Sort(ids)
		put(uint32(len(ids)))
		for _, id := range ids {
			put(id)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
