package rtree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/parallel"
	"prtree/internal/storage"
)

// gridItems returns rectangles whose coordinates are snapped to the 2^-bits
// grid: many items share an edge or a corner, so ties on a query boundary
// are common.
func gridItems(n int, bits uint, seed int64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	scale := math.Ldexp(1, int(bits))
	inv := math.Ldexp(1, -int(bits))
	snap := func(v float64) float64 { return math.Floor(v*scale) * inv }
	items := make([]geom.Item, n)
	for i := range items {
		x, y := snap(rng.Float64()*0.9), snap(rng.Float64()*0.9)
		items[i] = geom.Item{
			Rect: geom.NewRect(x, y, x+snap(rng.Float64()*0.05), y+snap(rng.Float64()*0.05)),
			ID:   uint32(i),
		}
	}
	return items
}

// sortedByID returns items sorted by ID, for comparing result sets.
func sortedByID(items []geom.Item) []geom.Item {
	out := slices.Clone(items)
	slices.SortFunc(out, func(a, b geom.Item) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

func equalItemSets(tb testing.TB, what string, got, want []geom.Item) {
	tb.Helper()
	if got, want := sortedByID(got), sortedByID(want); !slices.Equal(got, want) {
		tb.Fatalf("%s: tree returned %d items, brute force %d, or other ones", what, len(got), len(want))
	}
}

// bruteFilter returns the items keep accepts, in slice order.
func bruteFilter(items []geom.Item, keep func(geom.Rect) bool) []geom.Item {
	var out []geom.Item
	for _, it := range items {
		if keep(it.Rect) {
			out = append(out, it)
		}
	}
	return out
}

// checkRawPages fails if any page of tr has a format flag other than 0:
// the only page layout is the raw one.
func checkRawPages(tb testing.TB, tr *Tree) {
	tb.Helper()
	tr.Walk(func(page storage.PageID, _ int, _ bool, _ []geom.Item) {
		if err := checkFormat(page, tr.readView(page)); err != nil {
			tb.Fatal(err)
		}
	})
}

// TestLayoutTable pins the page layout: a 4-byte header and 36-byte
// entries, so the fanout per block size is (block-4)/36.
func TestLayoutTable(t *testing.T) {
	for _, c := range []struct{ block, fanout int }{
		{512, 14}, {1024, 28}, {4096, 113}, {8192, 227},
	} {
		if got := MaxFanout(c.block); got != c.fanout {
			t.Errorf("MaxFanout(%d) = %d, want %d", c.block, got, c.fanout)
		}
	}
	if headerSize != 4 || entrySize != 36 {
		t.Errorf("header %d bytes, entries %d bytes; want 4 and 36", headerSize, entrySize)
	}
}

// TestLayoutEquivalenceProperty: a packed tree on pages of the one raw
// layout answers window, containment, k-NN and concurrent queries exactly as a
// brute-force scan of its items does, across seeds, block sizes, and both
// grid-snapped (boundary ties) and full-precision data.
func TestLayoutEquivalenceProperty(t *testing.T) {
	for _, blockSize := range []int{512, 1024, 4096, 8192} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, grid := range []bool{true, false} {
				name := fmt.Sprintf("block=%d/seed=%d/grid=%v", blockSize, seed, grid)
				t.Run(name, func(t *testing.T) {
					var items []geom.Item
					if grid {
						items = gridItems(3000, 16, seed)
					} else {
						items = randItems(3000, seed)
					}
					items = xSorted(items)
					tr := packOn(t, storage.NewPager(storage.NewDisk(blockSize), -1), items)
					checkRawPages(t, tr)

					rng := rand.New(rand.NewSource(seed * 1000))
					for i := 0; i < 40; i++ {
						x, y := rng.Float64(), rng.Float64()
						q := geom.NewRect(x, y, x+rng.Float64()*0.2, y+rng.Float64()*0.2)
						if err := CheckQueryAgainstBruteForce(tr, items, q); err != nil {
							t.Fatal(err)
						}

						var contained []geom.Item
						tr.RunWindow(q, true, func(it geom.Item) bool { contained = append(contained, it); return true }, RunOptions{})
						equalItemSets(t, fmt.Sprintf("containment %v", q), contained, bruteFilter(items, q.Contains))

						k := 1 + rng.Intn(20)
						got, _, _ := tr.RunNearest(x, y, k, RunOptions{})
						want := bruteKNN(items, x, y, k)
						if len(got) != len(want) {
							t.Fatalf("knn(%g,%g,%d): %d results, want %d", x, y, k, len(got), len(want))
						}
						for j := range got {
							// Ties may order ids differently; distances may not.
							if got[j].Dist2 != want[j].Dist2 {
								t.Fatalf("knn(%g,%g,%d)[%d]: dist %g, want %g", x, y, k, j, got[j].Dist2, want[j].Dist2)
							}
						}
					}

					// Concurrent results equal the sequential runs, order included.
					queries := make([]geom.Rect, 16)
					for i := range queries {
						x, y := rng.Float64(), rng.Float64()
						queries[i] = geom.NewRect(x, y, x+0.1, y+0.1)
					}
					res := make([][]geom.Item, len(queries))
					parallel.Run(4, len(queries), func(i int) { res[i] = windowItems(tr, queries[i]) })
					for i, q := range queries {
						if !slices.Equal(res[i], windowItems(tr, q)) {
							t.Fatalf("concurrent query %d differs from the sequential one", i)
						}
					}
				})
			}
		}
	}
}
