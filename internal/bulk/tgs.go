package bulk

import (
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// tgsSlice is BuildTGS over a slice: the four orderings are permutations
// of items sorted by (coordinate, id, position), sorted on up to
// opt.Parallelism workers, and a partition cuts them at the cut's
// position, so tied records split like any others.
func tgsSlice(pager *storage.Pager, items []geom.Item, opt Options) *rtree.Tree {
	opt = opt.normalized(pager.Backend().BlockSize())
	b := rtree.NewBuilder(pager, rtree.Config{Fanout: opt.Fanout})
	if len(items) == 0 {
		return b.FinishEmpty()
	}
	p := &tgsPerm{items: items, left: make([]bool, len(items)), tmp: make([]int32, len(items))}
	copy(p.ord[:], Orders(items, AxisKeys(), opt.Parallelism))
	return BuildTGS(b, p)
}

// BuildTGS writes the Top-down Greedy Split R-tree of García, López and
// Leutenegger over the non-empty set s onto b and finishes it, in the
// variant the paper benchmarks: to build a node, the set is repeatedly
// divided in two with binary partitions until at most B subsets of
// (roughly) equal size remain, and each binary partition picks — among the
// four orderings xmin, ymin, xmax, ymax and O(B) candidate cut positions —
// the cut minimizing the sum of the areas of the two resulting bounding
// boxes. Subset sizes are powers of B (one remainder set), so one
// node per level may be underfull.
//
// Every cost evaluation scans the candidate ordering and every partition
// rewrites the four sorted lists, which is why the external TGS measures
// an order of magnitude more bulk-loading I/O than H (Figure 9):
// effectively O((N/B) log2 N) block transfers.
func BuildTGS(b *rtree.Builder, s TGSLists) *rtree.Tree {
	t := &tgsBuilder{b: b, fanout: b.Fanout()}
	h := tgsHeight(s.Len(), t.fanout)
	return b.Finish(t.build(s, h), h)
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

// TGSLists is one set of records in the four orderings TGS cuts along,
// each sorted by (coordinate, id): a permutation of each over a slice
// (tgsSlice) or a file of each on a store (package extmem).
type TGSLists interface {
	// Len is the number of records in the set.
	Len() int
	// Each calls fn on the records of ordering d, in order.
	Each(d int, fn func(geom.Item))
	// Split divides the set in two: the first pos records of ordering
	// axis, first being the one after them, and the rest. Every ordering
	// of each part stays sorted. The set is consumed.
	Split(axis, pos int, first geom.Item) (left, right TGSLists)
	// Leaf returns the records in ordering 0, appended to dst, and
	// consumes the set.
	Leaf(dst []geom.Item) []geom.Item
}

type tgsBuilder struct {
	b      *rtree.Builder
	fanout int
	buf    []geom.Item // one leaf's records
}

// build constructs a subtree of the given height over s and returns its
// entry.
func (t *tgsBuilder) build(s TGSLists, h int) rtree.ChildEntry {
	if h == 1 {
		t.buf = s.Leaf(t.buf[:0])
		return t.b.WriteLeaf(t.buf)
	}
	// m is the capacity of one height-(h-1) child subtree.
	m := t.fanout
	for i := 0; i < h-2; i++ {
		m *= t.fanout
	}
	var children []rtree.ChildEntry
	t.partition(s, m, h, &children)
	return t.b.WriteInternal(children)
}

// partition recursively binary-splits s until pieces hold at most m
// records, then builds each piece as a height-(h-1) subtree.
func (t *tgsBuilder) partition(s TGSLists, m, h int, children *[]rtree.ChildEntry) {
	if s.Len() <= m {
		*children = append(*children, t.build(s, h-1))
		return
	}
	left, right := s.Split(t.bestCut(s, m))
	t.partition(left, m, h, children)
	t.partition(right, m, h, children)
}

// bestCut evaluates, for each of the four orderings, every cut position at
// a multiple of m records, and returns the ordering, position and first
// record after the cut minimizing the sum of the areas of the two bounding
// boxes (one scan per ordering).
func (t *tgsBuilder) bestCut(s TGSLists, m int) (axis, pos int, first geom.Item) {
	nc := (s.Len() + m - 1) / m // number of chunks
	chunkMBR := make([]geom.Rect, nc)
	chunkFirst := make([]geom.Item, nc)
	suffix := make([]geom.Rect, nc+1)
	axis, bestCost := -1, 0.0
	for d := 0; d < 4; d++ {
		for i := range chunkMBR {
			chunkMBR[i] = geom.EmptyRect()
		}
		i := 0
		s.Each(d, func(it geom.Item) {
			c := i / m
			if i%m == 0 {
				chunkFirst[c] = it
			}
			chunkMBR[c] = chunkMBR[c].Union(it.Rect)
			i++
		})
		// Prefix/suffix bounding boxes over chunks.
		suffix[nc] = geom.EmptyRect()
		for i := nc - 1; i >= 0; i-- {
			suffix[i] = suffix[i+1].Union(chunkMBR[i])
		}
		prefix := geom.EmptyRect()
		for c := 1; c < nc; c++ {
			prefix = prefix.Union(chunkMBR[c-1])
			cost := prefix.Area() + suffix[c].Area()
			if axis == -1 || cost < bestCost {
				axis, bestCost, pos, first = d, cost, c*m, chunkFirst[c]
			}
		}
	}
	return axis, pos, first
}

// tgsPerm is a set as four orderings of positions in items. The sets of
// one load share their backing arrays: a split partitions each ordering in
// place, and left and tmp are scratch that no two splits use at once.
type tgsPerm struct {
	items []geom.Item
	ord   [4][]int32
	left  []bool  // by position: the record goes left in the running split
	tmp   []int32 // the right part of an ordering while it is partitioned
}

func (p *tgsPerm) Len() int { return len(p.ord[0]) }

func (p *tgsPerm) Each(d int, fn func(geom.Item)) {
	for _, i := range p.ord[d] {
		fn(p.items[i])
	}
}

// split partitions every ordering stably into the records among the first
// pos of ordering axis and the rest.
func (p *tgsPerm) Split(axis, pos int, _ geom.Item) (TGSLists, TGSLists) {
	for _, i := range p.ord[axis][:pos] {
		p.left[i] = true
	}
	left, right := *p, *p
	for d, ord := range p.ord {
		if d != axis {
			k, rest := 0, p.tmp[:0]
			for _, i := range ord {
				if p.left[i] {
					ord[k] = i
					k++
				} else {
					rest = append(rest, i)
				}
			}
			copy(ord[k:], rest)
		}
		left.ord[d], right.ord[d] = ord[:pos], ord[pos:]
	}
	for _, i := range left.ord[axis] {
		p.left[i] = false
	}
	return &left, &right
}

func (p *tgsPerm) Leaf(dst []geom.Item) []geom.Item {
	for _, i := range p.ord[0] {
		dst = append(dst, p.items[i])
	}
	return dst
}
