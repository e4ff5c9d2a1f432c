package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"prtree/internal/geom"
)

func TestPointStabbingWindow(t *testing.T) {
	items := []geom.Item{
		{Rect: geom.NewRect(0, 0, 2, 2), ID: 1},
		{Rect: geom.NewRect(1, 1, 3, 3), ID: 2},
		{Rect: geom.NewRect(5, 5, 6, 6), ID: 3},
	}
	tr := buildPacked(t, items, 4)
	got := map[uint32]bool{}
	tr.RunWindow(geom.PointRect(1.5, 1.5), false, func(it geom.Item) bool {
		got[it.ID] = true
		return true
	}, RunOptions{})
	if !got[1] || !got[2] || got[3] {
		t.Errorf("point query results: %v", got)
	}
}

func TestContainmentWindow(t *testing.T) {
	items := randItems(1000, 1)
	tr := buildPacked(t, items, 16)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 25; i++ {
		q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		want := map[uint32]bool{}
		for _, it := range items {
			if q.Contains(it.Rect) {
				want[it.ID] = true
			}
		}
		got := map[uint32]bool{}
		st, _ := tr.RunWindow(q, true, func(it geom.Item) bool {
			got[it.ID] = true
			return true
		}, RunOptions{})
		if len(got) != len(want) || st.Results != len(want) {
			t.Fatalf("containment %v: got %d, want %d", q, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("containment missing %d", id)
			}
		}
	}
}

func TestContainmentEarlyStop(t *testing.T) {
	items := randItems(500, 3)
	tr := buildPacked(t, items, 8)
	count := 0
	tr.RunWindow(geom.NewRect(-1, -1, 2, 2), true, func(geom.Item) bool {
		count++
		return count < 3
	}, RunOptions{})
	if count != 3 {
		t.Errorf("early stop at %d", count)
	}
}

func bruteKNN(items []geom.Item, x, y float64, k int) []Neighbor {
	ns := make([]Neighbor, len(items))
	for i, it := range items {
		ns[i] = Neighbor{Item: it, Dist2: it.Rect.Dist2(x, y)}
	}
	sort.Slice(ns, func(a, b int) bool { return ns[a].Dist2 < ns[b].Dist2 })
	if k > len(ns) {
		k = len(ns)
	}
	return ns[:k]
}

func TestNearestNeighborsMatchesBruteForce(t *testing.T) {
	items := randItems(2000, 4)
	tr := buildPacked(t, items, 16)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		x, y := rng.Float64(), rng.Float64()
		k := 1 + rng.Intn(20)
		got, _, _ := tr.RunNearest(x, y, k, RunOptions{})
		want := bruteKNN(items, x, y, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d results", k, len(got))
		}
		for j := range got {
			// Distances must match exactly in order (ties may permute ids).
			if got[j].Dist2 != want[j].Dist2 {
				t.Fatalf("k=%d result %d: dist %g, want %g", k, j, got[j].Dist2, want[j].Dist2)
			}
		}
		// Ascending order.
		for j := 1; j < len(got); j++ {
			if got[j].Dist2 < got[j-1].Dist2 {
				t.Fatalf("results not sorted at %d", j)
			}
		}
	}
}

func TestNearestNeighborsInsidePointZeroDist(t *testing.T) {
	items := randItems(300, 6)
	tr := buildPacked(t, items, 8)
	it := items[42]
	cx, cy := it.Rect.Center()
	got, _, _ := tr.RunNearest(cx, cy, 1, RunOptions{})
	if len(got) != 1 || got[0].Dist2 != 0 {
		t.Fatalf("nearest to an inside point should be distance 0: %+v", got)
	}
}

func TestNearestNeighborsKLargerThanN(t *testing.T) {
	items := randItems(10, 7)
	tr := buildPacked(t, items, 4)
	got, _, _ := tr.RunNearest(0.5, 0.5, 100, RunOptions{})
	if len(got) != 10 {
		t.Fatalf("k>n should return all: %d", len(got))
	}
}

func TestNearestNeighborsEmptyAndZeroK(t *testing.T) {
	disk := newTestTree(t, Config{Fanout: 4})
	if got, _, _ := disk.RunNearest(0, 0, 5, RunOptions{}); got != nil {
		t.Errorf("empty tree kNN = %v", got)
	}
	items := randItems(10, 8)
	tr := buildPacked(t, items, 4)
	if got, _, _ := tr.RunNearest(0, 0, 0, RunOptions{}); got != nil {
		t.Errorf("k=0 kNN = %v", got)
	}
}

func TestNearestNeighborsPrunes(t *testing.T) {
	// Best-first search on a spatially packed tree should touch far fewer
	// nodes than the whole tree for small k. (buildPacked packs in slice
	// order, so sort by a serpentine grid order first for locality.)
	items := randItems(20000, 9)
	sort.Slice(items, func(i, j int) bool {
		xi, yi := items[i].Rect.Center()
		xj, yj := items[j].Rect.Center()
		ri, rj := int(yi*40), int(yj*40)
		if ri != rj {
			return ri < rj
		}
		if ri%2 == 1 {
			xi, xj = -xi, -xj
		}
		return xi < xj
	})
	tr := buildPacked(t, items, 16)
	_, st, _ := tr.RunNearest(0.5, 0.5, 5, RunOptions{})
	if st.NodesVisited > tr.Nodes()/10 {
		t.Errorf("kNN visited %d of %d nodes — no pruning?", st.NodesVisited, tr.Nodes())
	}
}

func TestPointRectDist2(t *testing.T) {
	r := geom.NewRect(1, 1, 3, 3)
	cases := []struct {
		x, y, want float64
	}{
		{2, 2, 0}, // inside
		{1, 1, 0}, // corner
		{0, 2, 1}, // left
		{2, 5, 4}, // above
		{0, 0, 2}, // diagonal
		{4, 4, 2}, // opposite diagonal
		{5, 2, 4}, // right
	}
	for _, c := range cases {
		if got := r.Dist2(c.x, c.y); got != c.want {
			t.Errorf("dist2(%g,%g) = %g, want %g", c.x, c.y, got, c.want)
		}
	}
}
