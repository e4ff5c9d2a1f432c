// Package dataset generates every input family of the paper's experimental
// study (Section 3.2): the four synthetic classes size(max_side),
// aspect(a), skewed(c) and cluster, the worst-case bit-reversal grid of
// Theorem 3, and a seeded synthetic stand-in for the TIGER/Line road data
// (TigerLike). Fixed parameters, such as the paper's cluster sizes, are
// constants. All generators are deterministic in their seed.
package dataset

import (
	"math"
	"math/rand"

	"prtree/internal/geom"
)

// Uniform returns n rectangles whose centers are uniform in the unit
// square with side lengths uniform in (0, maxSide], clipped into the
// square by regeneration like the paper's size datasets.
func Uniform(n int, maxSide float64, seed int64) []geom.Item {
	return Size(n, maxSide, seed)
}

// Size generates the paper's size(max_side) family: rectangle centers
// uniformly distributed, side lengths uniform and independent in
// (0, max_side], rectangles not fully inside the unit square are discarded
// and regenerated so exactly n remain.
func Size(n int, maxSide float64, seed int64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Item, 0, n)
	for len(items) < n {
		cx, cy := rng.Float64(), rng.Float64()
		w, h := rng.Float64()*maxSide, rng.Float64()*maxSide
		r := geom.NewRect(cx-w/2, cy-h/2, cx+w/2, cy+h/2)
		if r.MinX < 0 || r.MinY < 0 || r.MaxX > 1 || r.MaxY > 1 {
			continue
		}
		items = append(items, geom.Item{Rect: r, ID: uint32(len(items))})
	}
	return items
}

// Aspect generates the paper's aspect(a) family: rectangles of fixed area
// 1e-6 and aspect ratio a, the long side horizontal or vertical with equal
// probability, centers uniform, fully inside the unit square.
func Aspect(n int, a float64, seed int64) []geom.Item {
	const area = 1e-6
	rng := rand.New(rand.NewSource(seed))
	long := math.Sqrt(area * a)
	short := math.Sqrt(area / a)
	items := make([]geom.Item, 0, n)
	for len(items) < n {
		cx, cy := rng.Float64(), rng.Float64()
		w, h := long, short
		if rng.Intn(2) == 0 {
			w, h = short, long
		}
		r := geom.NewRect(cx-w/2, cy-h/2, cx+w/2, cy+h/2)
		if r.MinX < 0 || r.MinY < 0 || r.MaxX > 1 || r.MaxY > 1 {
			continue
		}
		items = append(items, geom.Item{Rect: r, ID: uint32(len(items))})
	}
	return items
}

// Skewed generates the paper's skewed(c) family: uniform points squeezed
// in the y-dimension by replacing (x, y) with (x, y^c).
func Skewed(n, c int, seed int64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Item, n)
	for i := range items {
		x := rng.Float64()
		y := math.Pow(rng.Float64(), float64(c))
		items[i] = geom.Item{Rect: geom.PointRect(x, y), ID: uint32(i)}
	}
	return items
}

// The paper's cluster dataset is 10 000 clusters of 1 000 points each,
// in clusterSide x clusterSide squares whose centers are equally spaced on
// the horizontal line y = 0.5. Cluster scales it by keeping
// pointsPerCluster, with at least minClusters clusters.
const (
	clusterSide      = 1e-5
	pointsPerCluster = 1000
	minClusters      = 10
)

// Cluster generates the paper's cluster dataset scaled to n points.
func Cluster(n int, seed int64) []geom.Item {
	clusters := max(n/pointsPerCluster, minClusters)
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Item, n)
	for i := range items {
		c := i % clusters
		cx := (float64(c) + 0.5) / float64(clusters)
		cy := 0.5
		x := cx + (rng.Float64()-0.5)*clusterSide
		y := cy + (rng.Float64()-0.5)*clusterSide
		items[i] = geom.Item{Rect: geom.PointRect(x, y), ID: uint32(i)}
	}
	return items
}

// ClusterProbe returns a long skinny horizontal query of area height*width
// that passes through every cluster of the Cluster dataset, as in the
// paper's Table 1 experiment (area 1e-7 over width 1).
func ClusterProbe(seed int64) geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	height := 1e-7
	y := 0.5 + (rng.Float64()-0.5)*(clusterSide-2*height)
	return geom.NewRect(0, y, 1, y+height)
}

// WorstCase generates the Theorem 3 construction: a grid of cols = N/B
// columns and B rows where column i is shifted upward by h(i)/N, h being
// the k-bit reversal of i (a Halton–Hammersley set per row). The packed
// Hilbert, 4D-Hilbert and TGS R-trees all place each column in its own
// leaf, so a horizontal line query between the rows visits every leaf
// while reporting nothing; the PR-tree visits O(sqrt(N/B)).
//
// cols is rounded down to a power of two (the construction needs
// N/B = 2^k); the effective item set has cols*b points.
func WorstCase(n, b int) []geom.Item {
	cols := 1
	for cols*2*b <= n {
		cols *= 2
	}
	k := 0
	for 1<<(k+1) <= cols {
		k++
	}
	total := cols * b
	items := make([]geom.Item, 0, total)
	for i := 0; i < cols; i++ {
		hi := reverseBits(uint64(i), k)
		for j := 0; j < b; j++ {
			x := float64(i) + 0.5
			y := float64(j)/float64(b) + float64(hi)/float64(total)
			items = append(items, geom.Item{Rect: geom.PointRect(x, y), ID: uint32(len(items))})
		}
	}
	return items
}

// WorstCaseProbe returns a zero-output horizontal line query for the
// WorstCase dataset: it spans every column at a y-coordinate strictly
// between two of the shifted rows.
func WorstCaseProbe(n, b int, row int) geom.Rect {
	cols := 1
	for cols*2*b <= n {
		cols *= 2
	}
	total := cols * b
	row = ((row % b) + b) % b
	// Points of row j sit at j/b + h(i)/total with h(i) in [0, cols);
	// y = j/b + (cols-0.5)/total lies above every point of row j and below
	// row j+1 (which starts at (j+1)/b = j/b + cols/total).
	y := float64(row)/float64(b) + (float64(cols)-0.5)/float64(total)
	return geom.NewRect(0, y, float64(cols), y)
}

func reverseBits(v uint64, k int) uint64 {
	var out uint64
	for i := 0; i < k; i++ {
		out = (out << 1) | (v & 1)
		v >>= 1
	}
	return out
}
