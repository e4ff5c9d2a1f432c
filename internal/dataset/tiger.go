package dataset

import (
	"math"
	"math/rand"
	"sort"

	"prtree/internal/geom"
)

// The synthetic stand-in for the TIGER/Line road data reproduces the
// statistics the paper relies on: bounding boxes of short road segments —
// small extents, often high aspect ratio — mildly clustered around urban
// areas over a sparse rural background.
const (
	urbanFraction = 0.7    // share of segments in urban clusters
	meanSegment   = 0.0015 // mean road-segment length
)

// TigerLike generates n road-segment bounding boxes in the unit square,
// clustered around the given number of urban centers; centers ≤ 0 means
// max(20, n/4000).
func TigerLike(n, centers int, seed int64) []geom.Item {
	if centers <= 0 {
		centers = max(n/4000, 20)
	}
	rng := rand.New(rand.NewSource(seed))
	type center struct{ x, y, sigma float64 }
	cs := make([]center, centers)
	for i := range cs {
		cs[i] = center{
			x:     rng.Float64(),
			y:     rng.Float64(),
			sigma: 0.005 + rng.Float64()*0.03,
		}
	}
	items := make([]geom.Item, 0, n)
	for len(items) < n {
		var cx, cy float64
		if rng.Float64() < urbanFraction {
			c := cs[rng.Intn(len(cs))]
			cx = c.x + rng.NormFloat64()*c.sigma
			cy = c.y + rng.NormFloat64()*c.sigma
		} else {
			cx, cy = rng.Float64(), rng.Float64()
		}
		if cx < 0 || cx > 1 || cy < 0 || cy > 1 {
			continue
		}
		// A short segment with an exponential length distribution; its
		// bounding box is thin, often axis-aligned (roads follow grids).
		length := rng.ExpFloat64() * meanSegment
		if length > 0.05 {
			continue
		}
		theta := rng.Float64() * math.Pi
		if rng.Float64() < 0.5 {
			// Snap half the roads to the axes, like US street grids.
			if rng.Float64() < 0.5 {
				theta = 0
			} else {
				theta = math.Pi / 2
			}
		}
		dx := math.Abs(length * math.Cos(theta))
		dy := math.Abs(length * math.Sin(theta))
		r := geom.NewRect(cx-dx/2, cy-dy/2, cx+dx/2, cy+dy/2)
		if r.MinX < 0 || r.MinY < 0 || r.MaxX > 1 || r.MaxY > 1 {
			continue
		}
		items = append(items, geom.Item{Rect: r, ID: uint32(len(items))})
	}
	return items
}

// Eastern returns the stand-in for the Eastern TIGER dataset (16 states,
// the paper's largest input) scaled to n rectangles.
func Eastern(n int, seed int64) []geom.Item {
	return TigerLike(n, 0, seed)
}

// Western returns the stand-in for the Western TIGER dataset (5 states,
// ~72% of Eastern's size in the paper) scaled relative to n.
func Western(n int, seed int64) []geom.Item {
	return TigerLike(n*72/100, n/8000, seed+1)
}

// EasternRegions divides the Eastern dataset into five vertical regions of
// roughly equal cardinality and returns the five cumulative prefixes, as
// the paper does to obtain datasets of increasing size (Figures 10 and 14).
func EasternRegions(n int, seed int64) [][]geom.Item {
	all := Eastern(n, seed)
	sorted := make([]geom.Item, len(all))
	copy(sorted, all)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Rect.MinX != sorted[j].Rect.MinX {
			return sorted[i].Rect.MinX < sorted[j].Rect.MinX
		}
		return sorted[i].ID < sorted[j].ID
	})
	out := make([][]geom.Item, 5)
	for k := 1; k <= 5; k++ {
		prefix := make([]geom.Item, k*len(sorted)/5)
		copy(prefix, sorted[:len(prefix)])
		out[k-1] = prefix
	}
	return out
}
