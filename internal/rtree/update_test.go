package rtree

import (
	"math/rand"
	"testing"

	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/storage"
)

func insertAll(tr *Tree, items []geom.Item) {
	for _, it := range items {
		tr.Insert(it)
	}
}

func TestInsertSmall(t *testing.T) {
	tr := newTestTree(t, Config{Fanout: 4})
	items := randItems(10, 1)
	insertAll(tr, items)
	if tr.Len() != 10 {
		t.Fatalf("len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := CheckQueryAgainstBruteForce(tr, items, geom.NewRect(0, 0, 2, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestInsertGrowsHeight(t *testing.T) {
	tr := newTestTree(t, Config{Fanout: 4})
	items := randItems(100, 2)
	insertAll(tr, items)
	if tr.Height() < 3 {
		t.Errorf("height = %d after 100 inserts at fanout 4", tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertQueryCorrectnessBothSplits(t *testing.T) {
	for _, split := range []SplitKind{QuadraticSplit, LinearSplit} {
		tr := newTestTree(t, Config{Fanout: 8, Split: split})
		items := randItems(1500, 3)
		insertAll(tr, items)
		if err := tr.Validate(); err != nil {
			t.Fatalf("split %d: %v", split, err)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 40; i++ {
			q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
			if err := CheckQueryAgainstBruteForce(tr, items, q); err != nil {
				t.Fatalf("split %d: %v", split, err)
			}
		}
	}
}

func TestInsertDuplicateRects(t *testing.T) {
	tr := newTestTree(t, Config{Fanout: 4})
	r := geom.NewRect(0.5, 0.5, 0.6, 0.6)
	for i := 0; i < 50; i++ {
		tr.Insert(geom.Item{Rect: r, ID: uint32(i)})
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	got := tr.QueryCollect(r)
	if len(got) != 50 {
		t.Errorf("got %d duplicates back", len(got))
	}
}

func TestDeleteBasic(t *testing.T) {
	tr := newTestTree(t, Config{Fanout: 4})
	items := randItems(200, 5)
	insertAll(tr, items)
	for i, it := range items {
		if !tr.Delete(it) {
			t.Fatalf("delete %d failed", i)
		}
		if tr.Len() != len(items)-i-1 {
			t.Fatalf("len = %d after %d deletes", tr.Len(), i+1)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after delete %d: %v", i, err)
		}
	}
	if tr.Height() != 1 || tr.Len() != 0 {
		t.Errorf("emptied tree: %v", tr)
	}
}

func TestDeleteMissingReturnsFalse(t *testing.T) {
	tr := newTestTree(t, Config{Fanout: 4})
	items := randItems(50, 6)
	insertAll(tr, items)
	if tr.Delete(geom.Item{Rect: geom.NewRect(5, 5, 6, 6), ID: 9999}) {
		t.Error("deleting absent item should return false")
	}
	// Same rect, wrong id.
	if tr.Delete(geom.Item{Rect: items[0].Rect, ID: 9999}) {
		t.Error("deleting wrong id should return false")
	}
	if tr.Len() != 50 {
		t.Errorf("len changed to %d", tr.Len())
	}
}

func TestDeleteThenQuery(t *testing.T) {
	tr := newTestTree(t, Config{Fanout: 8})
	items := randItems(800, 7)
	insertAll(tr, items)
	// Delete every third item.
	var remaining []geom.Item
	for i, it := range items {
		if i%3 == 0 {
			if !tr.Delete(it) {
				t.Fatalf("delete %d failed", i)
			}
		} else {
			remaining = append(remaining, it)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 30; i++ {
		q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		if err := CheckQueryAgainstBruteForce(tr, remaining, q); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMixedWorkload(t *testing.T) {
	tr := newTestTree(t, Config{Fanout: 6})
	rng := rand.New(rand.NewSource(9))
	live := make(map[uint32]geom.Item)
	nextID := uint32(0)
	for step := 0; step < 3000; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			x, y := rng.Float64(), rng.Float64()
			it := geom.Item{Rect: geom.NewRect(x, y, x+rng.Float64()*0.1, y+rng.Float64()*0.1), ID: nextID}
			nextID++
			tr.Insert(it)
			live[it.ID] = it
		} else {
			// Delete a random live item.
			var victim geom.Item
			for _, it := range live {
				victim = it
				break
			}
			if !tr.Delete(victim) {
				t.Fatalf("step %d: delete failed", step)
			}
			delete(live, victim.ID)
		}
		if step%500 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
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
	for i := 0; i < 20; i++ {
		q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		if err := CheckQueryAgainstBruteForce(tr, universe, q); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCondenseReinsertsOrphans(t *testing.T) {
	// Build a tall skinny tree, then delete a cluster to force node
	// dissolution with subtree reinsertion.
	tr := newTestTree(t, Config{Fanout: 4, MinFill: 2})
	var items []geom.Item
	for i := 0; i < 64; i++ {
		x := float64(i)
		items = append(items, geom.Item{Rect: geom.NewRect(x, 0, x+0.5, 0.5), ID: uint32(i)})
	}
	insertAll(tr, items)
	for i := 0; i < 64; i += 2 {
		if !tr.Delete(items[i]) {
			t.Fatalf("delete %d failed", i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after delete %d: %v", i, err)
		}
	}
	if tr.Len() != 32 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 1; i < 64; i += 2 {
		got := tr.QueryCollect(items[i].Rect)
		found := false
		for _, g := range got {
			if g.ID == items[i].ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("item %d lost after condense", i)
		}
	}
}

func TestInsertIntoBulkLoadedTree(t *testing.T) {
	items := randItems(500, 10)
	tr := buildPacked(t, items, 8)
	extra := randItems(200, 11)
	for i := range extra {
		extra[i].ID += 10000
		tr.Insert(extra[i])
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	all := append(append([]geom.Item{}, items...), extra...)
	if err := CheckQueryAgainstBruteForce(tr, all, geom.NewRect(0.2, 0.2, 0.7, 0.7)); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteFreesPages(t *testing.T) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	tr := New(storage.NewPager(disk, -1), Config{Fanout: 4})
	items := randItems(300, 12)
	insertAll(tr, items)
	peak := tr.Nodes()
	for _, it := range items {
		tr.Delete(it)
	}
	if tr.Nodes() != 1 {
		t.Errorf("nodes after emptying = %d (peak %d)", tr.Nodes(), peak)
	}
}

func TestLinearSplitDegenerateAllEqual(t *testing.T) {
	tr := newTestTree(t, Config{Fanout: 4, Split: LinearSplit})
	r := geom.NewRect(1, 1, 1, 1)
	for i := 0; i < 20; i++ {
		tr.Insert(geom.Item{Rect: r, ID: uint32(i)})
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.QueryCollect(r); len(got) != 20 {
		t.Errorf("got %d of 20 equal points", len(got))
	}
}

func TestInsertIOBounded(t *testing.T) {
	// A single insert into a bulk tree should touch O(height) nodes, not
	// O(n). Allow generous slack for splits.
	items := randItems(5000, 13)
	tr := buildPacked(t, items, 16)
	disk := tr.Pager().Backend().(*storage.Disk)
	disk.ResetStats()
	tr.Insert(geom.Item{Rect: geom.NewRect(0.5, 0.5, 0.51, 0.51), ID: 99999})
	if total := disk.Stats().Total(); total > uint64(6*tr.Height()+10) {
		t.Errorf("insert cost %d I/Os for height-%d tree", total, tr.Height())
	}
}

// BenchmarkGuttmanInsert prices one heuristic insert (Guttman's quadratic
// split) into a growing in-memory tree.
func BenchmarkGuttmanInsert(b *testing.B) {
	tree := New(storage.NewPager(storage.NewDisk(storage.DefaultBlockSize), -1), Config{})
	items := dataset.Uniform(200000, 0.001, 23)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Insert(items[i%len(items)])
	}
}
