package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"prtree/internal/geom"
)

// TestLoadRejectsRawFlaggedOversizedRoot covers the hostile flag/count
// combination on the other side of the per-page-layout bound: a compressed
// tree (fanout 338) whose root page has its compressed flag cleared must be
// refused, not indexed past the block as a raw page holding more entries
// than a raw page can.
func TestLoadRejectsRawFlaggedOversizedRoot(t *testing.T) {
	// Enough items for a root with > 113 children at compressed fanout.
	items := xSorted(gridItems(338*130, 16, 1))
	tr := buildLayout(t, items, LayoutCompressed, 4096)
	rootView := tr.readView(tr.Root())
	if rootView.isLeaf() || !rootView.comp || rootView.count() <= MaxFanout(4096) {
		t.Fatalf("test premise: root comp=%v count=%d", rootView.comp, rootView.count())
	}
	dev := tr.Pager().Backend()
	page := append([]byte(nil), dev.PeekNoCopy(tr.Root())...)
	if page[1]&flagCompressed == 0 {
		t.Fatal("did not land on the compressed root page")
	}
	page[1] = 0 // clear the root page's flag byte
	dev.Write(tr.Root(), page)
	if _, err := reopen(tr); err == nil {
		t.Fatal("OpenFromMeta accepted a raw-flagged root with a compressed-sized count")
	}
}

// TestPersistReopenProperty is the persistence acceptance property:
// bulk-built trees of both layouts, across block sizes and seeds, must
// reopen from their metadata record over their pages with their structural
// invariants intact (Validate walks every page) and bit-identical query
// results.
func TestPersistReopenProperty(t *testing.T) {
	for _, blockSize := range []int{512, 1024, 4096, 8192} {
		for _, layout := range []Layout{LayoutRaw, LayoutCompressed} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("block=%d/%s/seed=%d", blockSize, layout, seed)
				t.Run(name, func(t *testing.T) {
					var items []geom.Item
					if seed%2 == 1 {
						items = gridItems(2500, 16, seed)
					} else {
						items = randItems(2500, seed)
					}
					items = xSorted(items)
					orig := buildLayout(t, items, layout, blockSize)

					// A few heuristic updates before reopening, so reopened
					// trees carry update-path pages (requantized covers,
					// raw-fallback splits) too.
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 50; i++ {
						x, y := rng.Float64(), rng.Float64()
						orig.Insert(geom.Item{Rect: geom.NewRect(x, y, x+0.01, y+0.01), ID: uint32(100000 + i)})
					}
					for i := 0; i < 20; i++ {
						orig.Delete(items[i*7])
					}
					if err := orig.Validate(); err != nil {
						t.Fatalf("pre-reopen: %v", err)
					}

					reopened, err := reopen(orig)
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					if err := reopened.Validate(); err != nil {
						t.Fatalf("post-reopen: %v", err)
					}
					if reopened.Layout() != layout || reopened.Len() != orig.Len() ||
						reopened.Height() != orig.Height() || reopened.Nodes() != orig.Nodes() {
						t.Fatalf("metadata drift: layout %v len %d height %d nodes %d, want %v %d %d %d",
							reopened.Layout(), reopened.Len(), reopened.Height(), reopened.Nodes(),
							layout, orig.Len(), orig.Height(), orig.Nodes())
					}
					if reopened.MBR() != orig.MBR() {
						t.Fatalf("MBR drift: %v != %v", reopened.MBR(), orig.MBR())
					}

					for i := 0; i < 30; i++ {
						x, y := rng.Float64(), rng.Float64()
						q := geom.NewRect(x, y, x+rng.Float64()*0.3, y+rng.Float64()*0.3)
						// Same tree shape on both sides, so even the
						// result ORDER must match exactly.
						a := orig.QueryCollect(q)
						b := reopened.QueryCollect(q)
						if len(a) != len(b) {
							t.Fatalf("query %v: %d vs %d results", q, len(a), len(b))
						}
						for j := range a {
							if a[j] != b[j] {
								t.Fatalf("query %v result %d: %v != %v", q, j, a[j], b[j])
							}
						}
						rn, _ := orig.NearestNeighbors(x, y, 10)
						ln, _ := reopened.NearestNeighbors(x, y, 10)
						if len(rn) != len(ln) {
							t.Fatalf("knn length %d vs %d", len(rn), len(ln))
						}
						for j := range rn {
							if rn[j] != ln[j] {
								t.Fatalf("knn result %d: %v != %v", j, rn[j], ln[j])
							}
						}
					}
				})
			}
		}
	}
}
