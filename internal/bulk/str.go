package bulk

import (
	"math"

	"prtree/internal/extsort"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// STR bulk-loads a Sort-Tile-Recursive R-tree (Leutenegger, López and
// Edgington): rectangles are sorted by x-center, cut into ceil(sqrt(N/B))
// vertical slabs of equal record count, each slab is sorted by y-center,
// and leaves are packed within slabs. STR is an extra baseline beyond the
// paper's comparison set; it behaves like H on nice data.
func STR(pager *storage.Pager, in *storage.ItemFile, opt Options) *rtree.Tree {
	opt = opt.normalized(pager.Backend().BlockSize())
	b := rtree.NewBuilder(pager, rtree.Config{Fanout: opt.Fanout})
	n := in.Len()
	if n == 0 {
		in.Free()
		return b.FinishEmpty()
	}
	disk := in.Backend()
	byX := extsort.Sort(in, extsort.UintKey(func(it geom.Item) uint64 {
		cx, _ := it.Rect.Center()
		return extsort.Float64Key(cx)
	}), opt.sortConfig())
	in.Free()

	nLeaves := (n + opt.Fanout - 1) / opt.Fanout
	nSlabs := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	slabRecords := nSlabs * opt.Fanout

	var leaves []rtree.ChildEntry
	r := byX.Reader()
	slab := storage.NewItemFile(disk)
	flushSlab := func() {
		slab.Seal()
		if slab.Len() == 0 {
			slab.Free()
			return
		}
		byY := extsort.Sort(slab, extsort.UintKey(func(it geom.Item) uint64 {
			_, cy := it.Rect.Center()
			return extsort.Float64Key(cy)
		}), opt.sortConfig())
		slab.Free()
		leaves = append(leaves, packSortedLeaves(b, byY)...)
	}
	for {
		it, ok := r.Next()
		if !ok {
			break
		}
		slab.Append(it)
		if slab.Len() == slabRecords {
			flushSlab()
			slab = storage.NewItemFile(disk)
		}
	}
	flushSlab()
	byX.Free()
	return b.FinishPacked(leaves)
}
