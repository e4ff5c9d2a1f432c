package rtree_test

// The classical update heuristics — Guttman's ChooseLeaf, quadratic split
// and CondenseTree, and the R* rules — run on experiments.HTree, an
// in-memory tree copied from an rtree.Tree. These tests drive them from an
// empty tree and from trees this package bulk-loads: after inserts and
// deletes the tree must validate, hold exactly the live items, and count
// window results as a brute-force scan does.

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"prtree/internal/experiments"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// newHTree returns an empty tree of the given fanout, updated by R* when
// rstar is set and by Guttman's algorithms otherwise.
func newHTree(fanout int, rstar bool) *experiments.HTree {
	pager := storage.NewPager(storage.NewDisk(storage.DefaultBlockSize), -1)
	return experiments.NewHTree(rtree.New(pager, rtree.Config{Fanout: fanout}), rstar)
}

func insertAll(h *experiments.HTree, items []geom.Item) {
	for _, it := range items {
		h.Insert(it)
	}
}

// checkTree fails unless h validates, stores exactly live, and reports as
// many items for each query as intersect it in live.
func checkTree(t *testing.T, h *experiments.HTree, live []geom.Item, queries ...geom.Rect) {
	t.Helper()
	got, err := h.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := zoo.Sorted(got), zoo.Sorted(live); !slices.Equal(got, want) {
		t.Fatalf("tree holds %d items, %d live, or other ones", len(got), len(want))
	}
	for _, q := range queries {
		n := zoo.Expect(live, zoo.Query{Rect: q}).Len()
		if _, res := h.Count(q); res != n {
			t.Fatalf("query %v: %d results, brute force %d", q, res, n)
		}
	}
}

func TestInsertSmall(t *testing.T) {
	h := newHTree(4, false)
	items := zoo.Uniform(10, 0.05, 1)
	insertAll(h, items)
	checkTree(t, h, items, geom.NewRect(0, 0, 2, 2))
}

func TestInsertGrowsHeight(t *testing.T) {
	h := newHTree(4, false)
	items := zoo.Uniform(100, 0.05, 2)
	insertAll(h, items)
	if h.Height() < 3 {
		t.Errorf("height = %d after 100 inserts at fanout 4", h.Height())
	}
	checkTree(t, h, items)
}

func TestInsertQueryCorrectnessBothSplits(t *testing.T) {
	for _, rstar := range []bool{false, true} {
		t.Run(fmt.Sprintf("rstar=%v", rstar), func(t *testing.T) {
			h := newHTree(8, rstar)
			items := zoo.Uniform(1500, 0.05, 3)
			insertAll(h, items)
			checkTree(t, h, items, zoo.Windows(40, 4)...)
		})
	}
}

func TestInsertDuplicateRects(t *testing.T) {
	h := newHTree(4, false)
	r := geom.NewRect(0.5, 0.5, 0.6, 0.6)
	items := zoo.Copies(50, r)
	insertAll(h, items)
	checkTree(t, h, items, r)
}

func TestDeleteBasic(t *testing.T) {
	h := newHTree(4, false)
	items := zoo.Uniform(200, 0.05, 5)
	insertAll(h, items)
	for i, it := range items {
		if !h.Delete(it) {
			t.Fatalf("delete %d failed", i)
		}
		checkTree(t, h, items[i+1:])
	}
	if h.Height() != 1 {
		t.Errorf("emptied tree has height %d", h.Height())
	}
}

func TestDeleteMissingReturnsFalse(t *testing.T) {
	h := newHTree(4, false)
	items := zoo.Uniform(50, 0.05, 6)
	insertAll(h, items)
	if h.Delete(geom.Item{Rect: geom.NewRect(5, 5, 6, 6), ID: 9999}) {
		t.Error("deleting absent item should return false")
	}
	// Same rect, wrong id.
	if h.Delete(geom.Item{Rect: items[0].Rect, ID: 9999}) {
		t.Error("deleting wrong id should return false")
	}
	checkTree(t, h, items)
}

func TestDeleteThenQuery(t *testing.T) {
	h := newHTree(8, false)
	items := zoo.Uniform(800, 0.05, 7)
	insertAll(h, items)
	// Delete every third item.
	var remaining []geom.Item
	for i, it := range items {
		if i%3 == 0 {
			if !h.Delete(it) {
				t.Fatalf("delete %d failed", i)
			}
		} else {
			remaining = append(remaining, it)
		}
	}
	checkTree(t, h, remaining, zoo.Windows(30, 8)...)
}

func TestMixedWorkload(t *testing.T) {
	h := newHTree(6, false)
	rng := rand.New(rand.NewSource(9))
	items := zoo.Uniform(3000, 0.1, 9)
	live := make(map[uint32]geom.Item)
	for step := 0; step < 3000; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			it := items[0]
			items = items[1:]
			h.Insert(it)
			live[it.ID] = it
		} else {
			// Delete a random live item.
			var victim geom.Item
			for _, victim = range live {
				break
			}
			if !h.Delete(victim) {
				t.Fatalf("step %d: delete failed", step)
			}
			delete(live, victim.ID)
		}
		if step%500 == 0 {
			checkTree(t, h, slices.Collect(maps.Values(live)))
		}
	}
	checkTree(t, h, slices.Collect(maps.Values(live)), zoo.Windows(20, 10)...)
}

// TestCondenseReinsertsOrphans builds a tall skinny tree at fanout 5 (nodes
// dissolve below 2 entries), then deletes every other item, so
// CondenseTree dissolves nodes and reinserts their entries.
func TestCondenseReinsertsOrphans(t *testing.T) {
	h := newHTree(5, false)
	var items, kept []geom.Item
	for i := 0; i < 64; i++ {
		x := float64(i)
		items = append(items, geom.Item{Rect: geom.NewRect(x, 0, x+0.5, 0.5), ID: uint32(i)})
	}
	insertAll(h, items)
	for i, it := range items {
		if i%2 == 1 {
			kept = append(kept, it)
			continue
		}
		if !h.Delete(it) {
			t.Fatalf("delete %d failed", i)
		}
		if _, err := h.Validate(); err != nil {
			t.Fatalf("after delete %d: %v", i, err)
		}
	}
	var own []geom.Rect
	for _, it := range kept {
		own = append(own, it.Rect)
	}
	checkTree(t, h, kept, own...)
}

func TestInsertIntoBulkLoadedTree(t *testing.T) {
	items := zoo.Uniform(500, 0.05, 10)
	h := experiments.NewHTree(rtree.BuildPacked(t, items, 8), false)
	extra := zoo.Uniform(200, 0.05, 11)
	for i := range extra {
		extra[i].ID += 10000
		h.Insert(extra[i])
	}
	checkTree(t, h, append(slices.Clone(items), extra...), geom.NewRect(0.2, 0.2, 0.7, 0.7))
}

func TestRStarInsertSmall(t *testing.T) {
	h := newHTree(4, true)
	items := zoo.Uniform(50, 0.05, 1)
	insertAll(h, items)
	checkTree(t, h, items, geom.NewRect(0, 0, 2, 2))
}

func TestRStarInsertLargeCorrect(t *testing.T) {
	h := newHTree(16, true)
	items := zoo.Uniform(3000, 0.05, 2)
	insertAll(h, items)
	checkTree(t, h, items, zoo.Windows(40, 3)...)
}

func TestRStarDeleteMixed(t *testing.T) {
	h := newHTree(8, true)
	items := zoo.Uniform(800, 0.05, 4)
	insertAll(h, items)
	var remaining []geom.Item
	for i, it := range items {
		if i%2 == 0 {
			if !h.Delete(it) {
				t.Fatalf("delete %d failed", i)
			}
		} else {
			remaining = append(remaining, it)
		}
	}
	checkTree(t, h, remaining, zoo.Windows(20, 5)...)
}

func TestRStarDuplicates(t *testing.T) {
	h := newHTree(4, true)
	r := geom.NewRect(0.3, 0.3, 0.4, 0.4)
	items := zoo.Copies(60, r)
	insertAll(h, items)
	checkTree(t, h, items, r)
}

func TestRStarInsertIntoBulkLoadedTree(t *testing.T) {
	items := zoo.Uniform(1000, 0.05, 7)
	h := experiments.NewHTree(rtree.BuildPacked(t, items, 16), true)
	extra := zoo.Uniform(400, 0.05, 8)
	for i := range extra {
		extra[i].ID += 50000
		h.Insert(extra[i])
	}
	checkTree(t, h, append(slices.Clone(items), extra...), geom.NewRect(0.1, 0.1, 0.6, 0.6))
}

// TestRStarBeatsGuttmanOnClusteredInserts: on a clustered insertion order
// the R* tree answers with no more leaf visits than the quadratic Guttman
// tree (a little slack allowed), which is what its heuristics are for.
func TestRStarBeatsGuttmanOnClusteredInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	guttman, rstar := newHTree(16, false), newHTree(16, true)
	for c := 0; c < 30; c++ {
		cx, cy := rng.Float64(), rng.Float64()
		for i := 0; i < 100; i++ {
			x, y := cx+rng.NormFloat64()*0.01, cy+rng.NormFloat64()*0.01
			it := geom.Item{Rect: geom.NewRect(x, y, x+0.001, y+0.001), ID: uint32(c*100 + i)}
			guttman.Insert(it)
			rstar.Insert(it)
		}
	}
	var gLeaves, rLeaves int
	for i := 0; i < 50; i++ {
		q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64()*0.2, rng.Float64()*0.2)
		g, _ := guttman.Count(q)
		r, _ := rstar.Count(q)
		gLeaves, rLeaves = gLeaves+g, rLeaves+r
	}
	if float64(rLeaves) > 1.2*float64(gLeaves) {
		t.Errorf("R* visited %d leaves, Guttman %d — R* should not be worse", rLeaves, gLeaves)
	}
}
