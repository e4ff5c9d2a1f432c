package rtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// buildLayout packs items in slice order into a tree of the given layout
// on its own disk of the given block size (see packOn).
func buildLayout(tb testing.TB, items []geom.Item, layout Layout, blockSize int) *Tree {
	tb.Helper()
	tr := packOn(tb, storage.NewPager(storage.NewDisk(blockSize), -1), items, layout)
	if err := tr.Validate(); err != nil {
		tb.Fatalf("%s layout tree invalid: %v", layout, err)
	}
	return tr
}

// sortedByID returns items sorted by ID for order-independent comparison:
// the two layouts pack different tree shapes, so result order may differ
// while the result SET must not.
func sortedByID(items []geom.Item) []geom.Item {
	out := append([]geom.Item(nil), items...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func equalItemSets(tb testing.TB, what string, a, b []geom.Item) {
	tb.Helper()
	a, b = sortedByID(a), sortedByID(b)
	if len(a) != len(b) {
		tb.Fatalf("%s: raw %d results, compressed %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			tb.Fatalf("%s: result %d differs: raw %v, compressed %v", what, i, a[i], b[i])
		}
	}
}

// xSorted returns items ordered by (minX, id) so both layouts pack the
// same sequence.
func xSorted(items []geom.Item) []geom.Item {
	out := append([]geom.Item(nil), items...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rect.MinX != out[j].Rect.MinX {
			return out[i].Rect.MinX < out[j].Rect.MinX
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// TestLayoutEquivalenceProperty is the acceptance property: identical
// query, k-NN and batch results between the raw and compressed layouts
// across seeds, block sizes, and both grid-aligned (lossless leaves) and
// full-precision (raw-fallback leaves) data.
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
					raw := buildLayout(t, items, LayoutRaw, blockSize)
					comp := buildLayout(t, items, LayoutCompressed, blockSize)

					rng := rand.New(rand.NewSource(seed * 1000))
					for i := 0; i < 40; i++ {
						x, y := rng.Float64(), rng.Float64()
						q := geom.NewRect(x, y, x+rng.Float64()*0.2, y+rng.Float64()*0.2)
						equalItemSets(t, fmt.Sprintf("query %v", q),
							raw.QueryCollect(q), comp.QueryCollect(q))
						if err := CheckQueryAgainstBruteForce(comp, items, q); err != nil {
							t.Fatal(err)
						}

						var rc, cc []geom.Item
						raw.ContainmentQuery(q, func(it geom.Item) bool { rc = append(rc, it); return true })
						comp.ContainmentQuery(q, func(it geom.Item) bool { cc = append(cc, it); return true })
						equalItemSets(t, fmt.Sprintf("containment %v", q), rc, cc)

						k := 1 + rng.Intn(20)
						rn, _ := raw.NearestNeighbors(x, y, k)
						cn, _ := comp.NearestNeighbors(x, y, k)
						if len(rn) != len(cn) {
							t.Fatalf("knn(%g,%g,%d): %d vs %d results", x, y, k, len(rn), len(cn))
						}
						for j := range rn {
							if rn[j] != cn[j] {
								t.Fatalf("knn(%g,%g,%d)[%d]: raw %v, compressed %v", x, y, k, j, rn[j], cn[j])
							}
						}
					}

					// Batch equality against the sequential runs.
					queries := make([]geom.Rect, 16)
					for i := range queries {
						x, y := rng.Float64(), rng.Float64()
						queries[i] = geom.NewRect(x, y, x+0.1, y+0.1)
					}
					rawRes, _ := raw.SearchBatch(queries, 4)
					compRes, _ := comp.SearchBatch(queries, 4)
					for i := range queries {
						equalItemSets(t, fmt.Sprintf("batch[%d]", i), rawRes[i], compRes[i])
					}

					if grid {
						if comp.Nodes() >= raw.Nodes() {
							t.Errorf("compressed tree not smaller: %d vs %d pages", comp.Nodes(), raw.Nodes())
						}
					}
				})
			}
		}
	}
}

// TestLayoutEquivalenceUnderUpdates drives identical insert/delete
// sequences into trees of both layouts (including the R* heuristics) and
// checks structural validity plus identical query results throughout —
// the update path exercises leaf-capacity renegotiation, multi-way splits
// and cover requantization.
func TestLayoutEquivalenceUnderUpdates(t *testing.T) {
	for _, split := range []SplitKind{QuadraticSplit, RStarSplit} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, grid := range []bool{true, false} {
				name := fmt.Sprintf("split=%d/seed=%d/grid=%v", split, seed, grid)
				t.Run(name, func(t *testing.T) {
					blockSize := 1024 // small fanout: splits happen fast
					rawDisk := storage.NewDisk(blockSize)
					compDisk := storage.NewDisk(blockSize)
					raw := New(storage.NewPager(rawDisk, -1), Config{Split: split, Layout: LayoutRaw})
					comp := New(storage.NewPager(compDisk, -1), Config{Split: split, Layout: LayoutCompressed})

					var items []geom.Item
					if grid {
						items = gridItems(1200, 16, seed+50)
					} else {
						items = randItems(1200, seed+50)
					}
					rng := rand.New(rand.NewSource(seed))
					live := make(map[int]bool)
					for i, it := range items {
						raw.Insert(it)
						comp.Insert(it)
						live[i] = true
						// Interleave deletions.
						if i%7 == 3 {
							for j := range live {
								raw.Delete(items[j])
								comp.Delete(items[j])
								delete(live, j)
								break
							}
						}
					}
					if err := raw.Validate(); err != nil {
						t.Fatalf("raw: %v", err)
					}
					if err := comp.Validate(); err != nil {
						t.Fatalf("compressed: %v", err)
					}
					if raw.Len() != comp.Len() {
						t.Fatalf("size skew: raw %d, compressed %d", raw.Len(), comp.Len())
					}
					for i := 0; i < 30; i++ {
						x, y := rng.Float64(), rng.Float64()
						q := geom.NewRect(x, y, x+rng.Float64()*0.3, y+rng.Float64()*0.3)
						equalItemSets(t, fmt.Sprintf("query %v", q),
							raw.QueryCollect(q), comp.QueryCollect(q))
					}
					equalItemSets(t, "full scan", raw.Items(), comp.Items())
				})
			}
		}
	}
}

// TestCompressedMixedPrecisionLeaves loads a dataset that is half
// grid-aligned and half full-precision: the compressed tree must end up
// with a mix of compressed and raw leaf pages, all coexisting under
// compressed internal levels, and still answer correctly.
func TestCompressedMixedPrecisionLeaves(t *testing.T) {
	// Spatially separated populations (grid data on the left, noisy on the
	// right) so x-ordered leaf groups are homogeneous and both page
	// formats appear in one tree.
	grid := gridItems(2000, 16, 9)
	for i := range grid {
		// Power-of-two scaling keeps the coordinates grid-aligned.
		grid[i].Rect.MinX *= 0.125
		grid[i].Rect.MaxX *= 0.125
	}
	noisy := randItems(2000, 10)
	for i := range noisy {
		noisy[i].ID += 1000000
		noisy[i].Rect.MinX = 0.5 + noisy[i].Rect.MinX*0.4
		noisy[i].Rect.MaxX = 0.5 + noisy[i].Rect.MaxX*0.4
	}
	items := xSorted(append(grid, noisy...))
	tr := buildLayout(t, items, LayoutCompressed, storage.DefaultBlockSize)

	var compLeaves, rawLeaves int
	tr.Walk(func(page storage.PageID, _ int, isLeaf bool, _ []geom.Item) {
		if !isLeaf {
			return
		}
		if pageIsCompressed(tr.pager.Read(page)) {
			compLeaves++
		} else {
			rawLeaves++
		}
	})
	if compLeaves == 0 || rawLeaves == 0 {
		t.Fatalf("expected mixed leaf formats, got %d compressed / %d raw", compLeaves, rawLeaves)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		x, y := rng.Float64(), rng.Float64()
		if err := CheckQueryAgainstBruteForce(tr, items, geom.NewRect(x, y, x+0.2, y+0.2)); err != nil {
			t.Fatal(err)
		}
	}
}
