package pseudo_test

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
	"prtree/internal/extmem"
	"prtree/internal/geom"
	"prtree/internal/pseudo"
	"prtree/internal/storage"
)

// The tests of the external grid construction (extmem.BuildPseudo) that
// need nothing but its output stay beside the in-memory construction they
// are held to. randItems and western are the package's own inputs.

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

// collectExternal runs extmem.BuildPseudo and gathers the emitted groups.
func collectExternal(t *testing.T, items []geom.Item, b, m int) (*storage.Disk, []pseudo.LeafGroup) {
	t.Helper()
	disk := storage.NewDisk(storage.DefaultBlockSize)
	in := extmem.NewItemFileFrom(disk, items)
	var groups []pseudo.LeafGroup
	extmem.BuildPseudo(in, b, m, func(lg pseudo.LeafGroup) {
		// Copy: builder may reuse backing arrays.
		cp := make([]geom.Item, len(lg.Items))
		copy(cp, lg.Items)
		groups = append(groups, pseudo.LeafGroup{Items: cp, Priority: lg.Priority, Dir: lg.Dir})
	})
	return disk, groups
}

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

func TestExternalPriorityGroupsAreExtreme(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	items := randItems(20000, 4)
	_, groups := collectExternal(t, items, per, 20*per)
	checkRootLeavesExtreme(t, items, groups, per)
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
	in := extmem.NewItemFileFrom(disk, items)
	disk.ResetStats()
	extmem.BuildPseudo(in, per, 30*per, func(pseudo.LeafGroup) {})
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
	in := extmem.NewItemFileFrom(disk, items)
	extmem.BuildPseudo(in, per, 12*per, func(pseudo.LeafGroup) {})
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
	in := extmem.NewItemFileFrom(disk, randItems(10, 12))
	defer func() {
		if recover() == nil {
			t.Error("tiny memory should panic")
		}
	}()
	extmem.BuildPseudo(in, 16, 10, func(pseudo.LeafGroup) {})
}

func TestExternalEmptyInput(t *testing.T) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	in := extmem.NewItemFileFrom(disk, nil)
	calls := 0
	extmem.BuildPseudo(in, 16, 4*storage.ItemsPerBlock(storage.DefaultBlockSize), func(pseudo.LeafGroup) { calls++ })
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
		{name: "one round", items: randItems(6000, 21), b: per, m: 2000, groups: 56, digest: "c69f7829cddbf19f"},
		{name: "two rounds", items: randItems(30000, 23), b: per, m: 20 * per, groups: 268, digest: "b03ababfd020ca81"},
		{name: "many rounds", items: randItems(20000, 22), b: 16, m: 4 * per, groups: 1277, digest: "a26d63c0d4038a0f"},
		{name: "duplicate-key fallback", items: sameSquare(3000), b: per, m: 8 * per, groups: 27, digest: "8e155cf29d13942e"},
		// The benchmark's set-up: one round at the default M.
		{name: "western/M=65536", items: western(), b: per, m: 65536, groups: 1916, digest: "d2666d6bc2720217"},
		{name: "western/in-memory", items: western(), b: per, m: len(western()), groups: 1912, digest: "2c0ba6c4cc730a3f"},
	}
	for _, c := range cases {
		disk := storage.NewDisk(storage.DefaultBlockSize)
		in := extmem.NewItemFileFrom(disk, c.items)
		var groups []pseudo.LeafGroup
		extmem.BuildPseudo(in, c.b, c.m, func(lg pseudo.LeafGroup) {
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

// sameSquare returns n copies of one record, id included: no key of any
// list separates them, so the first round cannot split and the build falls
// back to the in-memory construction despite N > M.
func sameSquare(n int) []geom.Item {
	items := make([]geom.Item, n)
	for i := range items {
		items[i] = geom.Item{Rect: geom.NewRect(3, 4, 5, 6), ID: 7}
	}
	return items
}
