package bulk

import (
	"prtree/internal/extsort"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// TGS bulk-loads the Top-down Greedy Split R-tree of García, López and
// Leutenegger, in the variant the paper benchmarks: to build a node, the
// set is repeatedly divided in two with binary partitions until at most B
// subsets of (roughly) equal size remain, and each binary partition picks —
// among the four orderings xmin, ymin, xmax, ymax and O(B) candidate cut
// positions — the cut minimizing the sum of the areas of the two resulting
// bounding boxes. Subset sizes are powers of B (one remainder set), so one
// node per level may be underfull.
//
// Every cost evaluation scans the candidate ordering and every partition
// rewrites the four sorted lists, which is why TGS measures an order of
// magnitude more bulk-loading I/O than H (Figure 9): effectively
// O((N/B) log2 N) block transfers.
func TGS(pager *storage.Pager, in *storage.ItemFile, opt Options) *rtree.Tree {
	opt = opt.normalized(pager.Backend().BlockSize())
	b := rtree.NewBuilder(pager, rtree.Config{Fanout: opt.Fanout})
	n := in.Len()
	if n == 0 {
		in.Free()
		return b.FinishEmpty()
	}
	disk := in.Backend()
	// The four orderings come from one scan of the input.
	lists := [4]*storage.ItemFile(extsort.SortKeys(in, extsort.AxisKeys(), opt.sortConfig()))
	in.Free()
	t := &tgsBuilder{disk: disk, b: b, fanout: opt.Fanout}
	h := tgsHeight(n, opt.Fanout)
	root := t.build(lists, h)
	return b.Finish(root, h)
}

// tgsHeight returns the minimum height h with fanout^h >= n.
func tgsHeight(n, fanout int) int {
	h, cap := 1, fanout
	for cap < n {
		h++
		cap *= fanout
	}
	return h
}

type tgsBuilder struct {
	disk   storage.Backend
	b      *rtree.Builder
	fanout int
}

// orderKey is a point in the strict total order (coordinate, id) of one of
// the four orderings.
type orderKey struct {
	v   float64
	tie uint32
}

func (k orderKey) less(o orderKey) bool {
	if k.v != o.v {
		return k.v < o.v
	}
	return k.tie < o.tie
}

func tgsKey(it geom.Item, axis int) orderKey {
	return orderKey{v: it.Rect.Coord(axis), tie: it.ID}
}

// build constructs a subtree of the given height over the rectangles in
// lists (all four sorted orderings of the same set) and returns its entry.
func (t *tgsBuilder) build(lists [4]*storage.ItemFile, h int) rtree.ChildEntry {
	if h == 1 {
		items := lists[0].ReadAll()
		for d := 0; d < 4; d++ {
			lists[d].Free()
		}
		return t.b.WriteLeaf(items)
	}
	// m is the capacity of one height-(h-1) child subtree.
	m := t.fanout
	for i := 0; i < h-2; i++ {
		m *= t.fanout
	}
	var children []rtree.ChildEntry
	t.partition(lists, m, h, &children)
	return t.b.WriteInternal(children)
}

// partition recursively binary-splits the set until pieces hold at most m
// records, then builds each piece as a height-(h-1) subtree.
func (t *tgsBuilder) partition(lists [4]*storage.ItemFile, m, h int, children *[]rtree.ChildEntry) {
	n := lists[0].Len()
	if n <= m {
		*children = append(*children, t.build(lists, h-1))
		return
	}
	axis, cut := t.bestCut(lists, m)
	left, right := t.splitLists(lists, axis, cut)
	t.partition(left, m, h, children)
	t.partition(right, m, h, children)
}

// bestCut evaluates, for each of the four orderings, every cut position at
// a multiple of m records, and returns the ordering and cut key minimizing
// the sum of the areas of the two bounding boxes (one scan per ordering).
func (t *tgsBuilder) bestCut(lists [4]*storage.ItemFile, m int) (int, orderKey) {
	n := lists[0].Len()
	nc := (n + m - 1) / m // number of chunks
	bestAxis, bestCost := -1, 0.0
	var bestKey orderKey
	for d := 0; d < 4; d++ {
		chunkMBR := make([]geom.Rect, nc)
		firstKey := make([]orderKey, nc)
		for i := range chunkMBR {
			chunkMBR[i] = geom.EmptyRect()
		}
		r := lists[d].Reader()
		for i := 0; ; i++ {
			it, ok := r.Next()
			if !ok {
				break
			}
			c := i / m
			if i%m == 0 {
				firstKey[c] = tgsKey(it, d)
			}
			chunkMBR[c] = chunkMBR[c].Union(it.Rect)
		}
		// Prefix/suffix bounding boxes over chunks.
		suffix := make([]geom.Rect, nc+1)
		suffix[nc] = geom.EmptyRect()
		for i := nc - 1; i >= 0; i-- {
			suffix[i] = suffix[i+1].Union(chunkMBR[i])
		}
		prefix := geom.EmptyRect()
		for c := 1; c < nc; c++ {
			prefix = prefix.Union(chunkMBR[c-1])
			cost := prefix.Area() + suffix[c].Area()
			if bestAxis == -1 || cost < bestCost {
				bestAxis, bestCost, bestKey = d, cost, firstKey[c]
			}
		}
	}
	return bestAxis, bestKey
}

// splitLists rewrites the four sorted lists into two sets: items ordering
// strictly before cut on axis go left. Each output list stays sorted
// because the scan preserves order.
func (t *tgsBuilder) splitLists(lists [4]*storage.ItemFile, axis int, cut orderKey) (left, right [4]*storage.ItemFile) {
	for d := 0; d < 4; d++ {
		left[d] = storage.NewItemFile(t.disk)
		right[d] = storage.NewItemFile(t.disk)
		r := lists[d].Reader()
		for {
			it, ok := r.Next()
			if !ok {
				break
			}
			if tgsKey(it, axis).less(cut) {
				left[d].Append(it)
			} else {
				right[d].Append(it)
			}
		}
		left[d].Seal()
		right[d].Seal()
		lists[d].Free()
	}
	return left, right
}
