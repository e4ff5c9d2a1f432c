// Package zoo is the tests' one home for inputs and for brute force: the
// input zoo every structure is checked on, the query classes, and the
// answer a scan of the items gives to each (oracle.go). Only test files
// import it; CI's lint job fails if a library package, a command or an
// example links it.
//
// Every generator is deterministic in (n, seed), and the ones that golden
// digests and pinned counts were recorded on (Uniform, Snapped, Lattice)
// draw exactly the values the per-package copies they replace drew.
package zoo

import (
	"math"
	"math/rand"

	"prtree/internal/dataset"
	"prtree/internal/geom"
)

// Uniform returns n rectangles whose lower-left corners are uniform in the
// unit square and whose sides are uniform in [0, maxSide), with IDs 0..n-1.
func Uniform(n int, maxSide float64, seed int64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = geom.Item{
			Rect: geom.NewRect(x, y, x+rng.Float64()*maxSide, y+rng.Float64()*maxSide),
			ID:   uint32(i),
		}
	}
	return items
}

// Snapped returns rectangles whose corners and sides, the sides below
// maxSide, are snapped to the 2^-bits grid: many items share an edge or a
// corner, so ties on a query boundary are common.
func Snapped(n int, bits uint, maxSide float64, seed int64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	scale := math.Ldexp(1, int(bits))
	inv := math.Ldexp(1, -int(bits))
	snap := func(v float64) float64 { return math.Floor(v*scale) * inv }
	items := make([]geom.Item, n)
	for i := range items {
		x, y := snap(rng.Float64()*0.9), snap(rng.Float64()*0.9)
		items[i] = geom.Item{
			Rect: geom.NewRect(x, y, x+snap(rng.Float64()*maxSide), y+snap(rng.Float64()*maxSide)),
			ID:   uint32(i),
		}
	}
	return items
}

// Lattice draws coordinates from a handful of integers (corners in 0..4,
// sides in 0..2), so every order sees long runs of equal coordinates that
// only the ID separates.
func Lattice(n int, seed int64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Item, n)
	for i := range items {
		x, y := float64(rng.Intn(5)), float64(rng.Intn(5))
		items[i] = geom.Item{Rect: geom.NewRect(x, y, x+float64(rng.Intn(3)), y+float64(rng.Intn(3))), ID: uint32(i)}
	}
	return items
}

// Cross returns horizontal and vertical segments, alternately, of length
// uniform in [0, l) with uniform lower-left ends: long, thin rectangles on
// which a priority leaf, long in one direction, pays its average-case
// price.
func Cross(n int, l float64, seed int64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Item, n)
	for i := range items {
		x, y, s := rng.Float64(), rng.Float64(), rng.Float64()*l
		r := geom.NewRect(x, y, x+s, y)
		if i%2 == 1 {
			r = geom.NewRect(x, y, x, y+s)
		}
		items[i] = geom.Item{Rect: r, ID: uint32(i)}
	}
	return items
}

// Twins returns n copies of one record, ID included: no key of any order
// separates them.
func Twins(n int) []geom.Item {
	items := make([]geom.Item, n)
	for i := range items {
		items[i] = geom.Item{Rect: geom.NewRect(3, 4, 5, 6), ID: 7}
	}
	return items
}

// Copies returns n items on the one rectangle r, with IDs 0..n-1: only
// the ID separates them.
func Copies(n int, r geom.Rect) []geom.Item {
	items := make([]geom.Item, n)
	for i := range items {
		items[i] = geom.Item{Rect: r, ID: uint32(i)}
	}
	return items
}

// Tied returns n records on 400 unit squares with 50 IDs: every record
// ties with others on each coordinate and on its ID.
func Tied(n int) []geom.Item {
	items := make([]geom.Item, n)
	for i := range items {
		x, y := float64(i%20), float64(i%400/20)
		items[i] = geom.Item{Rect: geom.NewRect(x, y, x+1, y+1), ID: uint32(i % 50)}
	}
	return items
}

// Diagonal returns n squares of the given side, points when it is 0, whose
// four coordinates all rise with the ID: sorted on any of them the items
// are one list, in which each beats all before it.
func Diagonal(n int, side float64) []geom.Item {
	items := make([]geom.Item, n)
	for i := range items {
		v := float64(i)
		items[i] = geom.Item{Rect: geom.NewRect(v, v, v+side, v+side), ID: uint32(i)}
	}
	return items
}

// coords returns n rectangles whose four coordinates are drawn from pick,
// so the degenerate inputs below differ only in the values they draw.
func coords(n int, seed int64, pick func(*rand.Rand) float64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Item, n)
	for i := range items {
		items[i] = geom.Item{Rect: geom.NewRect(pick(rng), pick(rng), pick(rng), pick(rng)), ID: uint32(i)}
	}
	return items
}

// Entry is one input of the zoo: a name for repro lines and a generator.
type Entry struct {
	Name string
	Gen  func(n int, seed int64) []geom.Item
}

// Entries is the zoo: the three uniform side bounds and the two grids the
// packages' tests drew from, the paper's Western and CLUSTER sets, cross
// data, and the degenerate inputs — zero-area points, duplicates, one
// rectangle for every item, ±0, coordinates near math.MaxFloat64, and
// subnormal coordinates.
var Entries = []Entry{
	{"uniform05", func(n int, seed int64) []geom.Item { return Uniform(n, 0.05, seed) }},
	{"uniform02", func(n int, seed int64) []geom.Item { return Uniform(n, 0.02, seed) }},
	{"uniform01", func(n int, seed int64) []geom.Item { return Uniform(n, 0.01, seed) }},
	{"snapped16", func(n int, seed int64) []geom.Item { return Snapped(n, 16, 0.05, seed) }},
	{"lattice", Lattice},
	{"western", dataset.Western},
	{"cluster", func(n int, seed int64) []geom.Item { return dataset.Cluster(n, seed) }},
	{"cross", func(n int, seed int64) []geom.Item { return Cross(n, 0.3, seed) }},
	{"points", func(n int, seed int64) []geom.Item {
		items := Uniform(n, 0, seed)
		for i := range items {
			r := &items[i].Rect
			r.MinX, r.MinY = math.Round(r.MinX*64)/64, math.Round(r.MinY*64)/64
			r.MaxX, r.MaxY = r.MinX, r.MinY
		}
		return items
	}},
	{"duplicates", func(n int, seed int64) []geom.Item {
		items := Uniform(n, 0.05, seed)
		for i := range items {
			items[i].Rect = items[i%max(n/20, 1)].Rect
		}
		return items
	}},
	{"equal", func(n int, seed int64) []geom.Item {
		return coords(n, seed, func(*rand.Rand) float64 { return 0.5 })
	}},
	{"signedzero", func(n int, seed int64) []geom.Item {
		vals := []float64{math.Copysign(0, -1), 0, -1, 1, -0.5, 0.5}
		return coords(n, seed, func(r *rand.Rand) float64 { return vals[r.Intn(len(vals))] })
	}},
	{"huge", func(n int, seed int64) []geom.Item {
		return coords(n, seed, func(r *rand.Rand) float64 { return math.MaxFloat64 * (0.5 + r.Float64()/2) })
	}},
	{"subnormal", func(n int, seed int64) []geom.Item {
		return coords(n, seed, func(r *rand.Rand) float64 { return math.SmallestNonzeroFloat64 * float64(r.Intn(4096)) })
	}},
}
