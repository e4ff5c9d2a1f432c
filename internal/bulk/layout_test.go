package bulk_test

import (
	"fmt"
	"math/rand"
	"testing"

	"prtree/internal/bulk"
	"prtree/internal/extmem"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// TestLoadersWrite36ByteEntryPages: every loader writes the one page
// layout there is, the paper's node of 36-byte entries, even on
// coordinate-snapped input, which the compressed layout of earlier
// versions packed three times the entries of. On snapped and on
// full-precision data every page has format flag 0 and at most MaxFanout
// entries, and the tree is valid, holds every item and answers as a
// brute-force scan does.
func TestLoadersWrite36ByteEntryPages(t *testing.T) {
	fanout := rtree.MaxFanout(storage.DefaultBlockSize)
	for _, l := range bulk.Loaders {
		for _, grid := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/grid=%v", l, grid), func(t *testing.T) {
				var items []geom.Item
				if grid {
					items = zoo.Snapped(6000, 16, 0.01, 42)
				} else {
					items = zoo.Uniform(6000, 0.01, 42)
				}
				tr := loadOn(t, l, items, extmem.Options{MemoryItems: 1 << 14})
				if err := tr.Validate(); err != nil {
					t.Fatalf("tree invalid: %v", err)
				}
				if tr.Len() != len(items) {
					t.Fatalf("lost items: %d != %d", tr.Len(), len(items))
				}
				dev := tr.Pager().Backend()
				tr.Walk(func(page storage.PageID, _ int, _ bool, entries []geom.Item) {
					if flag := dev.PeekNoCopy(page)[1]; flag != 0 {
						t.Fatalf("page %d has format flag %d", page, flag)
					}
					if len(entries) > fanout {
						t.Fatalf("page %d holds %d entries, past the fanout %d", page, len(entries), fanout)
					}
				})
				rng := rand.New(rand.NewSource(7))
				for i := 0; i < 25; i++ {
					x, y := rng.Float64(), rng.Float64()
					q := geom.NewRect(x, y, x+0.05+rng.Float64()*0.1, y+0.05+rng.Float64()*0.1)
					if err := zoo.Expect(items, zoo.Query{Rect: q}).CheckScan(func(f func(geom.Item) bool) { tr.RunWindow(q, false, f, rtree.RunOptions{}) }); err != nil {
						t.Fatalf("window %v: %v", q, err)
					}
				}
			})
		}
	}
}
