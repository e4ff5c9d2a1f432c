package rtree

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// packOn packs items in slice order into a tree of the block-size fanout
// on pager, using the builder exactly as the stream loaders do (WriteLeaf +
// FinishPacked), and validates it.
func packOn(tb testing.TB, pager *storage.Pager, items []geom.Item) *Tree {
	tb.Helper()
	b := NewBuilder(pager, Config{})
	var leaves []ChildEntry
	for lo := 0; lo < len(items); lo += b.Fanout() {
		leaves = append(leaves, b.WriteLeaf(items[lo:min(lo+b.Fanout(), len(items))]))
	}
	tr := b.FinishPacked(leaves)
	if err := tr.Validate(); err != nil {
		tb.Fatalf("packed tree invalid: %v", err)
	}
	return tr
}

// xSorted returns items ordered by (minX, id).
func xSorted(items []geom.Item) []geom.Item {
	out := slices.Clone(items)
	slices.SortFunc(out, func(a, b geom.Item) int {
		if c := cmp.Compare(a.Rect.MinX, b.Rect.MinX); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

// pagesOf returns the tree's pages, ascending.
func pagesOf(tr *Tree) []storage.PageID {
	var out []storage.PageID
	tr.Walk(func(page storage.PageID, _ int, _ bool, _ []geom.Item) { out = append(out, page) })
	slices.Sort(out)
	return out
}

// TestRelocated moves trees of heights 1 to 3 to below cuts
// from 0 to past their last page, on a store whose low half is holes
// (a released tree's pages) with the tree in the tail, as a carry leaves a
// level. The relocated tree validates and lists the same items in the same
// order; no page at or above the cut is left in it (the copies included,
// when the cut leaves the holes below it); the pages it kept and
// the pages handed back for freeing are together exactly the old tree's;
// PageSpans foretold the copies; and no page of the old tree was written —
// it still validates and reads the same, as a stale reader needs it to.
func TestRelocated(t *testing.T) {
	const blockSize = 512
	for height, n := range map[int]int{1: 10, 2: 120, 3: 2200} {
		t.Run(fmt.Sprintf("height=%d", height), func(t *testing.T) {
			items := xSorted(zoo.Snapped(n, 12, 0.05, int64(n)))
			build := func() (*storage.Disk, *Tree, []storage.PageID) {
				disk := storage.NewDisk(blockSize)
				pager := storage.NewPager(disk, -1)
				filler := packOn(t, pager, items)
				tr := packOn(t, pager, items)
				filler.Release() // the holes: as many as the tree has pages, all below it
				if tr.Height() != height {
					t.Fatalf("built height %d, want %d", tr.Height(), height)
				}
				return disk, tr, pagesOf(tr)
			}
			_, probe, pages := build()
			first, last := pages[0], pages[len(pages)-1]
			cuts := []storage.PageID{0, first, first + 1, (first + last) / 2, last, last + 1, last + 7}
			if probe.Height() > 1 {
				// Just above the root's lowest child: the child stays, a
				// sibling moves, the root is copied for the reference.
				cuts = append(cuts, storage.PageID(probe.readView(probe.Root()).refAt(0))+1)
			}
			for _, cut := range cuts {
				disk, tr, pages := build()
				before := make(map[storage.PageID][]byte, len(pages))
				for _, p := range pages {
					before[p] = append([]byte(nil), disk.PeekNoCopy(p)...)
				}
				foretold := 0
				tr.PageSpans(func(_, top storage.PageID) {
					if top >= cut {
						foretold++
					}
				})
				writes := disk.Stats().Writes

				moved, freed := tr.Relocated(cut)

				if len(freed) != foretold || int(disk.Stats().Writes-writes) != foretold {
					t.Fatalf("cut %d: %d pages handed back, %d written; PageSpans counts %d at or above the cut",
						cut, len(freed), disk.Stats().Writes-writes, foretold)
				}
				if foretold == 0 {
					if moved != tr {
						t.Fatalf("cut %d past the last page %d: a new tree came back", cut, last)
					}
					continue
				}
				if err := moved.Validate(); err != nil {
					t.Fatalf("cut %d: relocated tree: %v", cut, err)
				}
				if !slices.Equal(moved.Items(), tr.Items()) {
					t.Fatalf("cut %d: the relocated tree lists other items, or in another order", cut)
				}
				if moved.Nodes() != tr.Nodes() || moved.Len() != tr.Len() || moved.Height() != tr.Height() || moved.MBR() != tr.MBR() {
					t.Fatalf("cut %d: relocated %v, was %v", cut, moved, tr)
				}
				var kept []storage.PageID
				for _, p := range pagesOf(moved) {
					_, old := before[p]
					if old {
						kept = append(kept, p)
					}
					// A copy lands below the cut when the holes do: from the
					// tree's first page up, they all lie below.
					if p >= cut && (old || cut >= first) {
						t.Fatalf("cut %d: page %d of the relocated tree lies at or above it", cut, p)
					}
				}
				if all := append(kept, freed...); !slices.Equal(slices.Sorted(slices.Values(all)), pages) {
					t.Fatalf("cut %d: kept %v and freed %v are not the old tree's pages %v", cut, kept, freed, pages)
				}
				for p, was := range before {
					if !bytes.Equal(disk.PeekNoCopy(p), was) {
						t.Fatalf("cut %d: page %d of the old tree was written", cut, p)
					}
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("cut %d: the old tree after the relocation: %v", cut, err)
				}
			}
		})
	}
}
