// Package workload generates the window-query workloads of the paper's
// Section 3.3: square queries covering a fixed fraction of the data
// bounding box, squares skewed along with a skewed(c) dataset, and the
// long skinny line probes used on the cluster and worst-case datasets.
package workload

import (
	"math"
	"math/rand"

	"prtree/internal/geom"
)

// clampExtent limits a probe dimension to [0, max]: an oversized probe
// would make the random-offset range max-extent negative, placing queries
// outside the world (and, for NaN-producing inputs, degenerate rects).
// The clamp happens before any offset is drawn so the RNG stream stays
// well-defined.
func clampExtent(extent, max float64) float64 {
	if !(extent > 0) { // also catches NaN
		return 0
	}
	if extent > max {
		return max
	}
	return extent
}

// Squares returns count square queries of area areaFrac*Area(world) whose
// positions are uniform with the square fully inside world. A side larger
// than either world extent is clamped to it, so every query lies inside
// world even for areaFrac near or above 1.
func Squares(world geom.Rect, areaFrac float64, count int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	side := math.Sqrt(areaFrac * world.Area())
	side = clampExtent(side, math.Min(world.Width(), world.Height()))
	out := make([]geom.Rect, count)
	for i := range out {
		x := world.MinX + rng.Float64()*(world.Width()-side)
		y := world.MinY + rng.Float64()*(world.Height()-side)
		out[i] = geom.NewRect(x, y, x+side, y+side)
	}
	return out
}

// SkewedSquares returns squares of area areaFrac on the unit square,
// transformed like the skewed(c) dataset: each corner (x, y) becomes
// (x, y^c), so the output size stays roughly constant (Figure 15, right).
func SkewedSquares(areaFrac float64, c, count int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	side := clampExtent(math.Sqrt(areaFrac), 1)
	out := make([]geom.Rect, count)
	for i := range out {
		x := rng.Float64() * (1 - side)
		y := rng.Float64() * (1 - side)
		out[i] = geom.NewRect(
			x, math.Pow(y, float64(c)),
			x+side, math.Pow(y+side, float64(c)),
		)
	}
	return out
}
