package bulk

import (
	"prtree/internal/geom"
	"prtree/internal/pseudo"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// PRTree bulk-loads a Priority R-tree (Section 2.2 of the paper). The tree
// is built in stages bottom-up: stage 0 partitions the input rectangles
// into the leaves of a pseudo-PR-tree; stage i >= 1 partitions the bounding
// boxes of level i-1's nodes with a fresh pseudo-PR-tree whose leaves
// become level i; the pseudo trees' internal kd-nodes are discarded. The
// construction stops when the remaining bounding boxes fit in one node,
// which becomes the root.
//
// Each stage runs the external grid algorithm (O((n/B) log_{M/B}(n/B))
// I/Os on a stage of n rectangles), so the whole bulk-load costs
// O((N/B) log_{M/B}(N/B)) I/Os — about 2.5x the Hilbert loaders in the
// paper's Figure 9, 2.8x measured here when one external round suffices
// (TestBuildIOFigure9), and far below TGS. The resulting
// tree answers any window query in O(sqrt(N/B) + T/B) I/Os.
func PRTree(pager *storage.Pager, in *storage.ItemFile, opt Options) *rtree.Tree {
	opt = opt.normalized(pager.Backend().BlockSize())
	b := rtree.NewBuilder(pager, rtree.Config{Fanout: opt.Fanout, Split: opt.Split, Layout: opt.Layout})
	if in.Len() == 0 {
		in.Free()
		return b.FinishEmpty()
	}
	disk := in.Backend()
	cfg := pseudo.ExternalConfig{B: opt.Fanout, M: opt.MemoryItems, Workers: opt.Parallelism}

	cur := in
	level := 0
	for {
		next := storage.NewItemFile(disk)
		count := 0
		var last rtree.ChildEntry
		pseudo.BuildExternal(cur, cfg, func(lg pseudo.LeafGroup) {
			if level == 0 {
				// A pseudo-leaf group may become several pages when the
				// compressed layout falls back to raw; every page joins the
				// next stage as its own bounding box.
				for _, entry := range b.WriteLeaves(lg.Items) {
					next.Append(geom.Item{Rect: entry.Rect, ID: uint32(entry.Page)})
					last = entry
					count++
				}
				return
			}
			entry := b.WriteInternal(toChildEntries(lg.Items))
			next.Append(geom.Item{Rect: entry.Rect, ID: uint32(entry.Page)})
			last = entry
			count++
		})
		next.Seal()
		if count == 1 {
			next.Free()
			return b.Finish(last, level+1)
		}
		if count <= opt.Fanout {
			entries := toChildEntries(next.ReadAll())
			next.Free()
			root := b.WriteInternal(entries)
			return b.Finish(root, level+2)
		}
		cur = next
		level++
	}
}

// toChildEntries reinterprets bounding-box items produced by a previous
// stage (rect = node MBR, id = node page) as child entries.
func toChildEntries(items []geom.Item) []rtree.ChildEntry {
	out := make([]rtree.ChildEntry, len(items))
	for i, it := range items {
		out[i] = rtree.ChildEntry{Rect: it.Rect, Page: storage.PageID(it.ID)}
	}
	return out
}
