package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// TestLoadRejectsRawFlaggedOversizedRoot: a root page whose count is past
// what a block holds must be refused, not indexed past the block.
func TestLoadRejectsRawFlaggedOversizedRoot(t *testing.T) {
	tr := packOn(t, storage.NewPager(storage.NewDisk(4096), -1), xSorted(zoo.Uniform(113*20, 0.05, 1)))
	if tr.readView(tr.Root()).isLeaf() {
		t.Fatal("test premise: the root is a leaf")
	}
	dev := tr.Pager().Backend()
	page := append([]byte(nil), dev.PeekNoCopy(tr.Root())...)
	encodeHeader(page, kindInternal, MaxFanout(4096)+1)
	dev.Write(tr.Root(), page)
	if _, err := reopen(tr); err == nil {
		t.Fatal("OpenFromMeta accepted a root page holding more entries than a block")
	}
}

// TestPersistReopenProperty is the persistence acceptance property:
// bulk-built trees, across block sizes and seeds, on grid-snapped and
// full-precision data, must reopen from their metadata record over their
// pages with their structural invariants intact (Validate walks every
// page) and bit-identical query results.
func TestPersistReopenProperty(t *testing.T) {
	for _, blockSize := range []int{512, 1024, 4096, 8192} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("block=%d/seed=%d", blockSize, seed), func(t *testing.T) {
				var items []geom.Item
				if seed%2 == 1 {
					items = zoo.Snapped(2500, 16, 0.05, seed)
				} else {
					items = zoo.Uniform(2500, 0.05, seed)
				}
				items = xSorted(items)
				orig := packOn(t, storage.NewPager(storage.NewDisk(blockSize), -1), items)
				reopened, err := reopen(orig)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				if err := reopened.Validate(); err != nil {
					t.Fatalf("post-reopen: %v", err)
				}
				if reopened.Len() != orig.Len() || reopened.Height() != orig.Height() || reopened.Nodes() != orig.Nodes() {
					t.Fatalf("metadata drift: len %d height %d nodes %d, want %d %d %d",
						reopened.Len(), reopened.Height(), reopened.Nodes(), orig.Len(), orig.Height(), orig.Nodes())
				}
				if reopened.MBR() != orig.MBR() {
					t.Fatalf("MBR drift: %v != %v", reopened.MBR(), orig.MBR())
				}

				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 30; i++ {
					x, y := rng.Float64(), rng.Float64()
					q := geom.NewRect(x, y, x+rng.Float64()*0.3, y+rng.Float64()*0.3)
					// Same tree shape on both sides, so even the
					// result ORDER must match exactly.
					a := windowItems(orig, q)
					b := windowItems(reopened, q)
					if len(a) != len(b) {
						t.Fatalf("query %v: %d vs %d results", q, len(a), len(b))
					}
					for j := range a {
						if a[j] != b[j] {
							t.Fatalf("query %v result %d: %v != %v", q, j, a[j], b[j])
						}
					}
					rn, _, _ := orig.AppendNearest(nil, x, y, 10, RunOptions{})
					ln, _, _ := reopened.AppendNearest(nil, x, y, 10, RunOptions{})
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
