package experiments

import (
	"math/rand"
	"slices"
	"testing"

	"prtree/internal/geom"
)

func randRect(rng *rand.Rand, side float64) geom.Rect {
	x, y := rng.Float64(), rng.Float64()
	return geom.NewRect(x, y, x+rng.Float64()*side, y+rng.Float64()*side)
}

// TestRStarSplitBalance: every R* split leaves 40% of the entries on
// either side, and each entry on exactly one.
func TestRStarSplitBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := &hnode{leaf: true}
	for i := 0; i < 11; i++ {
		n.es = append(n.es, hentry{rect: randRect(rng, 0.01), id: uint32(i)})
	}
	left, right := splitRStar(n)
	if m := int(float64(len(n.es)) * rstarMinFillFraction); len(left) < m || len(right) < m {
		t.Errorf("unbalanced R* split: %d/%d (min %d)", len(left), len(right), m)
	}
	var ids []uint32
	for _, e := range append(left, right...) {
		ids = append(ids, e.id)
	}
	slices.Sort(ids)
	for i, id := range ids {
		if id != uint32(i) || len(ids) != 11 {
			t.Fatalf("split entries %v, want each of 0..10 once", ids)
		}
	}
}

// chooseReference is choose without its early stop: every sibling of every
// grown child summed, each term by geom.Rect.Intersect.
func chooseReference(n *hnode, r geom.Rect, overlap bool) int {
	area := func(a, b geom.Rect) float64 {
		if iv, ok := a.Intersect(b); ok {
			return iv.Area()
		}
		return 0
	}
	best := -1
	var bestOv, bestEnl, bestArea float64
	for i, e := range n.es {
		grown := e.rect.Union(r)
		var ov float64
		if overlap && grown != e.rect {
			for j, s := range n.es {
				if j != i && grown.Intersects(s.rect) {
					ov += area(grown, s.rect) - area(e.rect, s.rect)
				}
			}
		}
		enl, a := e.rect.EnlargementArea(r), e.rect.Area()
		if best == -1 || ov < bestOv ||
			(ov == bestOv && (enl < bestEnl || (enl == bestEnl && a < bestArea))) {
			best, bestOv, bestEnl, bestArea = i, ov, enl, a
		}
	}
	return best
}

// TestChooseMatchesReference: the sums that stop early decide as the full
// sums do, on nodes of up to 120 children whose coordinates sit on a coarse grid, so
// edges, overlaps and enlargements tie often, and some children are lines
// or points.
func TestChooseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	rect := func() geom.Rect {
		x, y := float64(rng.Intn(40))/8, float64(rng.Intn(40))/8
		return geom.NewRect(x, y, x+float64(rng.Intn(12))/8, y+float64(rng.Intn(12))/8)
	}
	for trial := range 1000 {
		n := &hnode{es: make([]hentry, 1+rng.Intn(120))}
		for i := range n.es {
			n.es[i].rect = rect()
		}
		r := rect()
		for _, overlap := range []bool{true, false} {
			if got, want := choose(n, r, overlap), chooseReference(n, r, overlap); got != want {
				t.Fatalf("trial %d, overlap %v: choose = %d, the all-pairs sum chooses %d", trial, overlap, got, want)
			}
		}
	}
}

func TestChooseByOverlapPrefersLowOverlap(t *testing.T) {
	// Child 0 covers the new rectangle outright; child 1 would have to grow
	// into child 0; child 2 is far away.
	n := &hnode{es: []hentry{
		{rect: geom.NewRect(0, 0, 1, 1)},
		{rect: geom.NewRect(0.5, 0, 1.5, 1)},
		{rect: geom.NewRect(10, 10, 11, 11)},
	}}
	if got := choose(n, geom.NewRect(0.4, 0.4, 0.6, 0.6), true); got != 0 {
		t.Errorf("choose = %d, want 0", got)
	}
	// Right of every child: growing child 1 adds no overlap, growing child
	// 0 would.
	if got := choose(n, geom.NewRect(1.6, 0.2, 1.7, 0.3), true); got != 1 {
		t.Errorf("choose = %d, want 1", got)
	}
}
