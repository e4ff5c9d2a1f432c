package dataset

import (
	"math"
	"testing"

	"prtree/internal/geom"
)

func inUnitSquare(items []geom.Item) bool {
	u := geom.NewRect(0, 0, 1, 1)
	for _, it := range items {
		if !u.Contains(it.Rect) {
			return false
		}
	}
	return true
}

func uniqueIDs(t *testing.T, items []geom.Item) {
	t.Helper()
	seen := make(map[uint32]bool, len(items))
	for _, it := range items {
		if seen[it.ID] {
			t.Fatalf("duplicate id %d", it.ID)
		}
		seen[it.ID] = true
	}
}

func TestSizeDataset(t *testing.T) {
	items := Size(5000, 0.01, 1)
	if len(items) != 5000 {
		t.Fatalf("len = %d", len(items))
	}
	uniqueIDs(t, items)
	if !inUnitSquare(items) {
		t.Error("size items must lie inside the unit square")
	}
	for _, it := range items {
		if it.Rect.Width() > 0.01 || it.Rect.Height() > 0.01 {
			t.Fatalf("oversized rect %v", it.Rect)
		}
	}
}

func TestSizeDeterministic(t *testing.T) {
	a := Size(100, 0.05, 7)
	b := Size(100, 0.05, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same data")
		}
	}
	c := Size(100, 0.05, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different data")
	}
}

func TestAspectDataset(t *testing.T) {
	for _, a := range []float64{1, 10, 1000} {
		items := Aspect(2000, a, 2)
		if len(items) != 2000 {
			t.Fatalf("len = %d", len(items))
		}
		if !inUnitSquare(items) {
			t.Fatalf("aspect(%g) items outside unit square", a)
		}
		horizontals := 0
		for _, it := range items {
			area := it.Rect.Area()
			if math.Abs(area-1e-6) > 1e-9 {
				t.Fatalf("aspect(%g) area = %g", a, area)
			}
			ar := max(it.Rect.Width(), it.Rect.Height()) / min(it.Rect.Width(), it.Rect.Height())
			if math.Abs(ar-a)/a > 0.01 {
				t.Fatalf("aspect(%g) ratio = %g", a, ar)
			}
			if it.Rect.Width() >= it.Rect.Height() {
				horizontals++
			}
		}
		if a > 1 {
			frac := float64(horizontals) / float64(len(items))
			if frac < 0.4 || frac > 0.6 {
				t.Errorf("aspect(%g): %.2f horizontal, want ~0.5", a, frac)
			}
		}
	}
}

func TestSkewedDataset(t *testing.T) {
	items := Skewed(5000, 5, 3)
	if !inUnitSquare(items) {
		t.Error("skewed items outside unit square")
	}
	// Squeezing concentrates mass near y=0: the median y must be far
	// below 0.5 (it is 0.5^5 ~ 0.03).
	below := 0
	for _, it := range items {
		if it.Rect.MinY < 0.1 {
			below++
		}
	}
	if frac := float64(below) / float64(len(items)); frac < 0.6 {
		t.Errorf("skewed(5): only %.2f of points below y=0.1", frac)
	}
	// c=1 must stay uniform.
	items = Skewed(5000, 1, 3)
	below = 0
	for _, it := range items {
		if it.Rect.MinY < 0.5 {
			below++
		}
	}
	if frac := float64(below) / float64(len(items)); frac < 0.45 || frac > 0.55 {
		t.Errorf("skewed(1): %.2f below median", frac)
	}
}

func TestClusterDataset(t *testing.T) {
	items := Cluster(20000, 4)
	if len(items) != 20000 {
		t.Fatalf("len = %d", len(items))
	}
	uniqueIDs(t, items)
	// All points in a thin horizontal band around y = 0.5.
	for _, it := range items {
		if math.Abs(it.Rect.MinY-0.5) > 1e-5 {
			t.Fatalf("cluster point at y=%g", it.Rect.MinY)
		}
	}
	// The probe must intersect points from every cluster region but can
	// be answered with tiny output relative to n.
	probe := ClusterProbe(4)
	hits := 0
	for _, it := range items {
		if probe.Intersects(it.Rect) {
			hits++
		}
	}
	if hits == len(items) {
		t.Error("probe should not cover everything")
	}
}

func TestWorstCaseDataset(t *testing.T) {
	b := 16
	items := WorstCase(1000, b)
	cols := len(items) / b
	if cols&(cols-1) != 0 {
		t.Fatalf("columns = %d, want power of two", cols)
	}
	uniqueIDs(t, items)
	// Column x-positions are i+0.5.
	for _, it := range items {
		frac := it.Rect.MinX - math.Floor(it.Rect.MinX)
		if frac != 0.5 {
			t.Fatalf("x = %g not at column center", it.Rect.MinX)
		}
	}
	// The probe reports exactly zero points for every row choice.
	for row := 0; row < b; row++ {
		probe := WorstCaseProbe(1000, b, row)
		for _, it := range items {
			if probe.Intersects(it.Rect) {
				t.Fatalf("row %d probe hits point %v", row, it.Rect)
			}
		}
	}
}

func TestWorstCaseBitReversalSpreadsColumns(t *testing.T) {
	// Adjacent columns must have very different shifts — that is the point
	// of the bit-reversal: their y-offsets differ by ~half the row band.
	b := 8
	items := WorstCase(64*b*2, b)
	cols := len(items) / b
	// Shift of column i = y of its j=0 point times total.
	shift := make([]float64, cols)
	for _, it := range items {
		i := int(it.Rect.MinX)
		if it.Rect.MinY < 1.0/float64(b) {
			shift[i] = it.Rect.MinY
		}
	}
	if math.Abs(shift[0]-shift[1]) < 0.4/float64(b) {
		t.Errorf("columns 0,1 shifts too close: %g vs %g", shift[0], shift[1])
	}
}

func TestReverseBits(t *testing.T) {
	cases := []struct {
		v    uint64
		k    int
		want uint64
	}{
		{0, 4, 0}, {1, 4, 8}, {2, 4, 4}, {3, 4, 12}, {15, 4, 15}, {1, 1, 1}, {5, 3, 5},
	}
	for _, c := range cases {
		if got := reverseBits(c.v, c.k); got != c.want {
			t.Errorf("reverseBits(%d,%d) = %d, want %d", c.v, c.k, got, c.want)
		}
	}
}

func TestTigerLike(t *testing.T) {
	items := TigerLike(10000, 0, 5)
	if len(items) != 10000 {
		t.Fatalf("len = %d", len(items))
	}
	uniqueIDs(t, items)
	if !inUnitSquare(items) {
		t.Error("tiger items outside unit square")
	}
	// Small extents: 99th percentile extent well below 5% of the world.
	big := 0
	for _, it := range items {
		if it.Rect.Width() > 0.05 || it.Rect.Height() > 0.05 {
			big++
		}
	}
	if big > 0 {
		t.Errorf("%d oversize road segments", big)
	}
	// Clustering: a small query window near an urban center should catch
	// far more than the uniform share. Find the densest 0.05-cell.
	grid := map[[2]int]int{}
	for _, it := range items {
		cx, cy := it.Rect.Center()
		grid[[2]int{int(cx * 20), int(cy * 20)}]++
	}
	max := 0
	for _, c := range grid {
		if c > max {
			max = c
		}
	}
	if float64(max) < 3*float64(len(items))/400 {
		t.Errorf("no urban clustering: densest cell holds %d of %d", max, len(items))
	}
}

func TestEasternWestern(t *testing.T) {
	e := Eastern(5000, 1)
	w := Western(5000, 1)
	if len(e) != 5000 {
		t.Fatalf("eastern len = %d", len(e))
	}
	if len(w) != 3600 {
		t.Fatalf("western len = %d, want 72%% of 5000", len(w))
	}
}

func TestEasternRegionsPrefixes(t *testing.T) {
	regions := EasternRegions(5000, 2)
	if len(regions) != 5 {
		t.Fatalf("regions = %d", len(regions))
	}
	for k := 0; k < 5; k++ {
		want := (k + 1) * 5000 / 5
		if len(regions[k]) != want {
			t.Fatalf("prefix %d len = %d, want %d", k, len(regions[k]), want)
		}
	}
	// Prefixes nest: region k's items are a subset of region k+1's ids.
	for k := 0; k < 4; k++ {
		ids := make(map[uint32]bool, len(regions[k+1]))
		for _, it := range regions[k+1] {
			ids[it.ID] = true
		}
		for _, it := range regions[k] {
			if !ids[it.ID] {
				t.Fatalf("prefix %d not nested in %d", k, k+1)
			}
		}
	}
	// Region 1 spans a narrower x-range than region 5 (vertical slicing).
	m1 := geom.ItemsMBR(regions[0])
	m5 := geom.ItemsMBR(regions[4])
	if m1.Width() >= m5.Width() {
		t.Errorf("region slicing broken: %g vs %g", m1.Width(), m5.Width())
	}
}

func TestUniformAliasesSize(t *testing.T) {
	a := Uniform(50, 0.01, 9)
	b := Size(50, 0.01, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Uniform must alias Size")
		}
	}
}
