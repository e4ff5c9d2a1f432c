package rtree

import (
	"math/rand"
	"testing"

	"prtree/internal/geom"
)

func newRStarTree(t *testing.T, fanout int) *Tree {
	t.Helper()
	return newTestTree(t, Config{Fanout: fanout, Split: RStarSplit})
}

func TestRStarInsertSmall(t *testing.T) {
	tr := newRStarTree(t, 4)
	items := randItems(50, 1)
	insertAll(tr, items)
	if tr.Len() != 50 {
		t.Fatalf("len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := CheckQueryAgainstBruteForce(tr, items, geom.NewRect(0, 0, 2, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestRStarInsertLargeCorrect(t *testing.T) {
	tr := newRStarTree(t, 16)
	items := randItems(3000, 2)
	insertAll(tr, items)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		if err := CheckQueryAgainstBruteForce(tr, items, q); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRStarDeleteMixed(t *testing.T) {
	tr := newRStarTree(t, 8)
	items := randItems(800, 4)
	insertAll(tr, items)
	var remaining []geom.Item
	for i, it := range items {
		if i%2 == 0 {
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
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		if err := CheckQueryAgainstBruteForce(tr, remaining, q); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRStarBeatsGuttmanOnClusteredInserts(t *testing.T) {
	// The R* heuristics exist to produce better trees under dynamic
	// insertion. On a clustered insertion order, the R* tree should answer
	// queries with no more leaf visits than the quadratic Guttman tree
	// (allowing a little slack for randomness).
	rng := rand.New(rand.NewSource(6))
	var items []geom.Item
	for c := 0; c < 30; c++ {
		cx, cy := rng.Float64(), rng.Float64()
		for i := 0; i < 100; i++ {
			x := cx + rng.NormFloat64()*0.01
			y := cy + rng.NormFloat64()*0.01
			items = append(items, geom.Item{Rect: geom.NewRect(x, y, x+0.001, y+0.001), ID: uint32(len(items))})
		}
	}
	guttman := newTestTree(t, Config{Fanout: 16, Split: QuadraticSplit})
	rstar := newTestTree(t, Config{Fanout: 16, Split: RStarSplit})
	insertAll(guttman, items)
	insertAll(rstar, items)
	if err := rstar.Validate(); err != nil {
		t.Fatal(err)
	}
	var gLeaves, rLeaves int
	for i := 0; i < 50; i++ {
		q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64()*0.2, rng.Float64()*0.2)
		gLeaves += guttman.QueryCount(q).LeavesVisited
		rLeaves += rstar.QueryCount(q).LeavesVisited
	}
	if float64(rLeaves) > 1.2*float64(gLeaves) {
		t.Errorf("R* visited %d leaves, Guttman %d — R* should not be worse", rLeaves, gLeaves)
	}
}

func TestRStarDuplicates(t *testing.T) {
	tr := newRStarTree(t, 4)
	r := geom.NewRect(0.3, 0.3, 0.4, 0.4)
	for i := 0; i < 60; i++ {
		tr.Insert(geom.Item{Rect: r, ID: uint32(i)})
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.QueryCollect(r); len(got) != 60 {
		t.Errorf("found %d of 60 duplicates", len(got))
	}
}

func TestRStarInsertIntoBulkLoadedTree(t *testing.T) {
	items := randItems(1000, 7)
	tr := buildPacked(t, items, 16)
	// Flip the tree's config to R* for subsequent inserts.
	tr.cfg.Split = RStarSplit
	extra := randItems(400, 8)
	for i := range extra {
		extra[i].ID += 50000
		tr.Insert(extra[i])
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	all := append(append([]geom.Item{}, items...), extra...)
	if err := CheckQueryAgainstBruteForce(tr, all, geom.NewRect(0.1, 0.1, 0.6, 0.6)); err != nil {
		t.Fatal(err)
	}
}

func TestRStarSplitBalance(t *testing.T) {
	// Every R* split must respect the 40% minimum fill on both sides.
	tr := newRStarTree(t, 10)
	n := &node{kind: kindLeaf}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 11; i++ {
		x, y := rng.Float64(), rng.Float64()
		n.append(geom.NewRect(x, y, x+0.01, y+0.01), uint32(i))
	}
	left, right := tr.splitRStar(n)
	if left.count()+right.count() != 11 {
		t.Fatalf("split lost entries: %d + %d", left.count(), right.count())
	}
	eleven := 11.0
	min := int(eleven * rstarMinFillFraction)
	if left.count() < min || right.count() < min {
		t.Errorf("unbalanced R* split: %d/%d (min %d)", left.count(), right.count(), min)
	}
}

func TestChooseByOverlapPrefersLowOverlap(t *testing.T) {
	n := &node{kind: kindInternal}
	// Child 0 overlaps child 1 heavily if enlarged; child 2 is far away
	// but needs the same area enlargement as 0 to cover the new rect.
	n.append(geom.NewRect(0, 0, 1, 1), 0)
	n.append(geom.NewRect(0.5, 0, 1.5, 1), 1)
	n.append(geom.NewRect(10, 10, 11, 11), 2)
	r := geom.NewRect(0.4, 0.4, 0.6, 0.6) // inside child 0 and child 1's reach
	got := chooseByOverlap(n, r)
	// Containment: no enlargement for 0, so 0 (zero overlap growth, zero
	// enlargement) must win over 2.
	if got != 0 {
		t.Errorf("chooseByOverlap = %d, want 0", got)
	}
}
