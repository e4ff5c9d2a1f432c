package bulk

import (
	"prtree/internal/extsort"
	"prtree/internal/geom"
	"prtree/internal/hilbert"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// Hilbert2D bulk-loads the packed Hilbert R-tree of Kamel and Faloutsos:
// rectangles are sorted by the Hilbert value of their centers, placed into
// full leaves in that order, and the upper levels are packed bottom-up.
// Cost: one scan for the world box, one external sort, one packing pass —
// O((N/B) log_{M/B}(N/B)) I/Os, the cheapest loader in Figure 9.
func Hilbert2D(pager *storage.Pager, in *storage.ItemFile, opt Options) *rtree.Tree {
	opt = opt.normalized(pager.Backend().BlockSize())
	b := rtree.NewBuilder(pager, rtree.Config{Fanout: opt.Fanout})
	if in.Len() == 0 {
		in.Free()
		return b.FinishEmpty()
	}
	q := hilbert.NewQuantizer2D(worldOf(in), hilbertBits)
	sorted := extsort.Sort(in, extsort.UintKey(func(it geom.Item) uint64 {
		return q.CenterKey(it.Rect)
	}), opt.sortConfig())
	in.Free()
	return b.FinishPacked(packSortedLeaves(b, sorted))
}

// Hilbert4D bulk-loads the four-dimensional Hilbert R-tree: rectangles are
// mapped to the 4D points (xmin, ymin, xmax, ymax) and sorted along the 4D
// Hilbert curve, so the ordering is extent-aware. Same I/O cost as
// Hilbert2D.
func Hilbert4D(pager *storage.Pager, in *storage.ItemFile, opt Options) *rtree.Tree {
	opt = opt.normalized(pager.Backend().BlockSize())
	b := rtree.NewBuilder(pager, rtree.Config{Fanout: opt.Fanout})
	if in.Len() == 0 {
		in.Free()
		return b.FinishEmpty()
	}
	q := hilbert.NewQuantizer4D(worldOf(in), hilbertBits)
	sorted := extsort.Sort(in, extsort.UintKey(func(it geom.Item) uint64 {
		return q.Key(it.Rect)
	}), opt.sortConfig())
	in.Free()
	return b.FinishPacked(packSortedLeaves(b, sorted))
}
