package bulk

import (
	"prtree/internal/geom"
	"prtree/internal/pseudo"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// PRTreeSlice bulk-loads a Priority R-tree (Section 2.2 of the paper). The
// tree is built in stages bottom-up: stage 0 partitions the input
// rectangles into the leaves of a pseudo-PR-tree; stage i >= 1 partitions
// the bounding boxes of level i-1's nodes with a fresh pseudo-PR-tree whose
// leaves become level i; the pseudo trees' internal kd-nodes are
// discarded. The construction stops when the remaining bounding boxes fit
// in one node, which becomes the root. The resulting tree answers any
// window query in O(sqrt(N/B) + T/B) I/Os.
//
// Every stage builds its pseudo-PR-tree in memory (pseudo.Build): the
// records of stage 0 over a permutation of items, which is only read, each
// later stage over the entries of the one before. It allocates four bytes
// of permutation a record, the pseudo-trees' nodes and their peel scratch
// besides the pages; stage 0's leaves are gathered and encoded a batch at a
// time on opt.Parallelism workers (Builder.WriteLeaves), which adds one
// leaf's worth of gather buffer a worker. The external construction
// (extmem.Load) builds the same stages in memory while its input fits its
// memory budget, so the two then write the same pages in the same order.
// Every facade PR load of a slice takes this path.
func PRTreeSlice(pager *storage.Pager, items []geom.Item, opt Options) *rtree.Tree {
	opt = opt.normalized(pager.Backend().BlockSize())
	b := rtree.NewBuilder(pager, rtree.Config{Fanout: opt.Fanout})
	if len(items) == 0 {
		return b.FinishEmpty()
	}
	cur := items
	for level := 0; ; level++ {
		next := make([]geom.Item, 0, len(cur)/opt.Fanout+1)
		t := pseudo.Build(cur, opt.Fanout, true, opt.Parallelism)
		if level == 0 {
			leaves := t.LeafIDs()
			b.WriteLeaves(len(leaves), opt.Parallelism, func(i int, dst []geom.Item) []geom.Item {
				return t.Gather(dst, leaves[i])
			}, func(e rtree.ChildEntry) { next = append(next, toItem(e)) })
		} else {
			t.EachLeaf(func(lg pseudo.LeafGroup) {
				next = append(next, toItem(b.WriteGroup(level, lg.Items)))
			})
		}
		if len(next) == 1 {
			return b.Finish(rtree.ChildEntry{Rect: next[0].Rect, Page: storage.PageID(next[0].ID)}, level+1)
		}
		if len(next) <= opt.Fanout {
			return b.Finish(b.WriteGroup(level+1, next), level+2)
		}
		cur = next
	}
}

// toItem carries a page's entry into the next stage as a record: rect =
// node MBR, id = node page.
func toItem(e rtree.ChildEntry) geom.Item { return geom.Item{Rect: e.Rect, ID: uint32(e.Page)} }
