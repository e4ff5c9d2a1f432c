package bulk

import (
	"prtree/internal/geom"
	"prtree/internal/hilbert"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// HilbertKey returns the sort key of loader l, H or H4, over the world
// box.
func HilbertKey(l Loader, world geom.Rect) func(geom.Item) uint64 {
	if l == LoaderHilbert {
		q := hilbert.NewQuantizer2D(world, hilbertBits)
		return func(it geom.Item) uint64 { return q.CenterKey(it.Rect) }
	}
	q := hilbert.NewQuantizer4D(world, hilbertBits)
	return func(it geom.Item) uint64 { return q.Key(it.Rect) }
}

// hilbertSlice bulk-loads a packed Hilbert R-tree: rectangles are sorted
// along a Hilbert curve, placed into full leaves in that order, and the
// upper levels are packed bottom-up. H is the packed Hilbert R-tree of
// Kamel and Faloutsos, which orders rectangles by the Hilbert value of
// their centers; H4 maps them to the 4D points (xmin, ymin, xmax, ymax)
// and sorts along the 4D curve, so its order is extent-aware. It keys
// every record once, sorts a permutation by (key, id, position) and packs
// the leaves in that order, gathering and encoding them on
// opt.Parallelism workers.
func hilbertSlice(l Loader, pager *storage.Pager, items []geom.Item, opt Options) *rtree.Tree {
	opt = opt.normalized(pager.Backend().BlockSize())
	b := rtree.NewBuilder(pager, rtree.Config{Fanout: opt.Fanout})
	if len(items) == 0 {
		return b.FinishEmpty()
	}
	key := UintKey(HilbertKey(l, geom.ItemsMBR(items)))
	perm := Orders(items, []KeyFunc{key}, 1)[0]
	f := opt.Fanout
	n := (len(perm) + f - 1) / f
	leaves := make([]rtree.ChildEntry, 0, n)
	b.WriteLeaves(n, opt.Parallelism, func(i int, dst []geom.Item) []geom.Item {
		for _, p := range perm[i*f : min((i+1)*f, len(perm))] {
			dst = append(dst, items[p])
		}
		return dst
	}, func(e rtree.ChildEntry) { leaves = append(leaves, e) })
	return b.FinishPacked(leaves)
}
