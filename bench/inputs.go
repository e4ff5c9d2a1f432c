package main

import (
	"math"

	"prtree/internal/dataset"
	"prtree/internal/geom"
)

// dataSeed fixes the dataset. The TIGER stand-in is clustered, and between
// generator seeds the median window's result count moves by ±10 %: more
// than any bound worth setting. So the data is part of the benchmark, as
// the TIGER files are part of the paper's, and --seed draws what a change
// could overfit to: the windows, their order and the mutation order.
const dataSeed = 2004

func generateItems(n int) []geom.Item { return dataset.Western(n, dataSeed) }

func mbrOf(items []geom.Item) geom.Rect {
	world := items[0].Rect
	for _, it := range items[1:] {
		world = world.Union(it.Rect)
	}
	return world
}

// unitFloat maps (seed, i) to [0, 1).
func unitFloat(seed, i uint64) float64 { return float64(mix(seed, i)>>11) / (1 << 53) }

// windows returns about count square windows of area areaFrac·Area(world),
// all inside world: one placed uniformly in each cell of a g×g grid
// (g = √count rounded), then shuffled so that any prefix is a fair sample.
// workload.Squares draws the same squares with independent positions; the
// grid removes the luck of how many land on a cluster, which otherwise
// moves a pool's mean result count by ±4 % from seed to seed.
func windows(world geom.Rect, areaFrac float64, count int, seed int64) []geom.Rect {
	g := max(int(math.Round(math.Sqrt(float64(count)))), 1)
	side := math.Sqrt(areaFrac * world.Area())
	w, h := world.Width()-side, world.Height()-side
	s := uint64(seed)
	out := make([]geom.Rect, g*g)
	for i := range out {
		x := world.MinX + (float64(i%g)+unitFloat(s, uint64(2*i)))/float64(g)*w
		y := world.MinY + (float64(i/g)+unitFloat(s, uint64(2*i+1)))/float64(g)*h
		out[i] = geom.NewRect(x, y, x+side, y+side)
	}
	for i := len(out) - 1; i > 0; i-- {
		j := int(mix(s^0x5bd1e995, uint64(i)) % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}
