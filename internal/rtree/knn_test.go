package rtree

import (
	"sort"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/zoo"
)

func TestPointStabbingWindow(t *testing.T) {
	items := []geom.Item{
		{Rect: geom.NewRect(0, 0, 2, 2), ID: 1},
		{Rect: geom.NewRect(1, 1, 3, 3), ID: 2},
		{Rect: geom.NewRect(5, 5, 6, 6), ID: 3},
	}
	tr := buildPacked(t, items, 4)
	p := geom.PointRect(1.5, 1.5)
	if err := zoo.Expect(items, zoo.Query{Rect: p}).CheckScan(func(f func(geom.Item) bool) { window(tr, p, f) }); err != nil {
		t.Errorf("point query: %v", err)
	}
}

func TestContainmentWindow(t *testing.T) {
	items := zoo.Uniform(1000, 0.05, 1)
	tr := buildPacked(t, items, 16)
	for _, q := range zoo.Windows(25, 2) {
		var st QueryStats
		want := zoo.Expect(items, zoo.Query{Kind: zoo.Contained, Rect: q})
		err := want.CheckScan(func(f func(geom.Item) bool) { st, _ = tr.RunWindow(q, true, f, RunOptions{}) })
		if err != nil || st.Results != want.Len() {
			t.Fatalf("containment %v: %v, %d results counted", q, err, st.Results)
		}
	}
}

func TestContainmentEarlyStop(t *testing.T) {
	items := zoo.Uniform(500, 0.05, 3)
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

func TestNearestNeighborsInsidePointZeroDist(t *testing.T) {
	items := zoo.Uniform(300, 0.05, 6)
	tr := buildPacked(t, items, 8)
	it := items[42]
	cx, cy := it.Rect.Center()
	got, _, _ := tr.AppendNearest(nil, cx, cy, 1, RunOptions{})
	if len(got) != 1 || got[0].Dist2 != 0 {
		t.Fatalf("nearest to an inside point should be distance 0: %+v", got)
	}
}

func TestNearestNeighborsKLargerThanN(t *testing.T) {
	items := zoo.Uniform(10, 0.05, 7)
	tr := buildPacked(t, items, 4)
	got, _, _ := tr.AppendNearest(nil, 0.5, 0.5, 100, RunOptions{})
	if len(got) != 10 {
		t.Fatalf("k>n should return all: %d", len(got))
	}
}

func TestNearestNeighborsEmptyAndZeroK(t *testing.T) {
	disk := newTestTree(t, Config{Fanout: 4})
	if got, _, _ := disk.AppendNearest(nil, 0, 0, 5, RunOptions{}); got != nil {
		t.Errorf("empty tree kNN = %v", got)
	}
	items := zoo.Uniform(10, 0.05, 8)
	tr := buildPacked(t, items, 4)
	if got, _, _ := tr.AppendNearest(nil, 0, 0, 0, RunOptions{}); got != nil {
		t.Errorf("k=0 kNN = %v", got)
	}
}

func TestNearestNeighborsPrunes(t *testing.T) {
	// Best-first search on a spatially packed tree should touch far fewer
	// nodes than the whole tree for small k. (buildPacked packs in slice
	// order, so sort by a serpentine grid order first for locality.)
	items := zoo.Uniform(20000, 0.05, 9)
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
	_, st, _ := tr.AppendNearest(nil, 0.5, 0.5, 5, RunOptions{})
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
