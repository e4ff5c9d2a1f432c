package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// The classical R-tree update heuristics the futurework experiment applies
// to a bulk-loaded PR-tree: Guttman's ChooseLeaf, quadratic split and
// CondenseTree (SIGMOD 1984), and the R*-tree rules of Beckmann et al.
// (SIGMOD 1990, the paper's reference [6]). They run on an in-memory tree
// of pointer nodes copied from a built rtree.Tree, entry order included.
// Their decisions read only rectangles, item ids and entry order, and a
// page stores all three exactly, so this tree decides as a paged one would.

// hentry is one node entry: an item in a leaf, a child in an internal node.
type hentry struct {
	rect geom.Rect
	id   uint32 // the item id; leaf entries only
	kid  *hnode // the child; internal entries only
}

type hnode struct {
	leaf bool
	es   []hentry
}

func (n *hnode) mbr() geom.Rect {
	out := geom.EmptyRect()
	for _, e := range n.es {
		out = out.Union(e.rect)
	}
	return out
}

// HTree is an R-tree updated by Guttman's algorithms or, with rstar set, by
// the R* rules: overlap-minimizing ChooseSubtree one level above the
// target, one forced reinsertion per level and insertion, and the
// margin/overlap split. It is exported so that the rtree package's tests
// can drive the heuristics over the trees that package builds.
type HTree struct {
	rstar   bool
	fanout  int
	minFill int // entries below which a delete dissolves a non-root node
	root    *hnode
	height  int // levels; 0 when empty, 1 when the root is a leaf
}

// R* constants: the share of entries a first overflow evicts for
// reinsertion, and the m/M ratio of candidate split distributions.
const (
	rstarReinsertFraction = 0.30
	rstarMinFillFraction  = 0.40
)

// NewHTree copies t into pointer nodes. Deletes dissolve nodes below 2/5 of
// the fanout (Guttman's m <= M/2 regime).
func NewHTree(t *rtree.Tree, rstar bool) *HTree {
	f := t.Config().Fanout
	h := &HTree{rstar: rstar, fanout: f, minFill: max(1, f*2/5), height: t.Height()}
	nodes := make(map[storage.PageID]*hnode)
	t.Walk(func(page storage.PageID, _ int, isLeaf bool, entries []geom.Item) {
		n := nodes[page]
		if n == nil { // Walk visits parents first: only the root is new
			n = &hnode{}
			h.root = n
		}
		n.leaf = isLeaf
		for _, e := range entries {
			en := hentry{rect: e.Rect, id: e.ID}
			if !isLeaf {
				en = hentry{rect: e.Rect, kid: &hnode{}}
				nodes[storage.PageID(e.ID)] = en.kid
			}
			n.es = append(n.es, en)
		}
	})
	return h
}

// Count returns the leaves a window query visits and the items it reports,
// counted as rtree.Tree.RunWindow counts them: the root is visited always,
// a child when its entry meets q.
func (h *HTree) Count(q geom.Rect) (leaves, results int) {
	var visit func(n *hnode)
	visit = func(n *hnode) {
		if n.leaf {
			leaves++
		}
		for _, e := range n.es {
			switch {
			case !q.Intersects(e.rect):
			case n.leaf:
				results++
			default:
				visit(e.kid)
			}
		}
	}
	if h.root != nil {
		visit(h.root)
	}
	return leaves, results
}

// Height returns the number of levels: 0 when empty, 1 when the root is a
// leaf.
func (h *HTree) Height() int { return h.height }

// Validate checks the shape the heuristics must keep — leaves at one depth,
// every entry's rectangle the exact MBR of its child, no node above the
// fanout, no empty node but a root leaf — and returns the stored items.
func (h *HTree) Validate() ([]geom.Item, error) {
	var items []geom.Item
	var walk func(n *hnode, level int) error
	walk = func(n *hnode, level int) error {
		if n.leaf != (level == 0) {
			return fmt.Errorf("leaf flag %v at level %d", n.leaf, level)
		}
		if len(n.es) > h.fanout || (len(n.es) == 0 && n != h.root) {
			return fmt.Errorf("node at level %d holds %d entries, fanout %d", level, len(n.es), h.fanout)
		}
		for _, e := range n.es {
			if n.leaf {
				items = append(items, geom.Item{Rect: e.rect, ID: e.id})
				continue
			}
			if e.rect != e.kid.mbr() {
				return fmt.Errorf("entry %v at level %d, child MBR %v", e.rect, level, e.kid.mbr())
			}
			if err := walk(e.kid, level-1); err != nil {
				return err
			}
		}
		return nil
	}
	if h.root == nil {
		return nil, nil
	}
	return items, walk(h.root, h.height-1)
}

// step is one node on a root-to-target descent and the entry taken from it
// (-1 at the target).
type step struct {
	n   *hnode
	idx int
}

// orphan is an entry waiting to be reinserted at its level (0 = leaves).
type orphan struct {
	e     hentry
	level int
}

// Insert adds it to the tree.
func (h *HTree) Insert(it geom.Item) {
	if h.root == nil {
		h.root, h.height = &hnode{leaf: true}, 1
	}
	h.insertAt(hentry{rect: it.Rect, id: it.ID}, 0, make(map[int]bool))
}

// insertAt places e into a node at level. reinserted records the levels
// that spent their R* forced reinsertion during this logical insertion.
func (h *HTree) insertAt(e hentry, level int, reinserted map[int]bool) {
	path := make([]step, 0, h.height)
	n := h.root
	for l := h.height - 1; l > level; l-- {
		best := choose(n, e.rect, h.rstar && l == level+1)
		path = append(path, step{n, best})
		n = n.es[best].kid
	}
	n.es = append(n.es, e)
	path = append(path, step{n, -1})

	// AdjustTree: an overflowing node splits (under R*, first evicts for
	// reinsertion), and MBRs and new siblings propagate to the root.
	var split *hentry
	var evicted []orphan
	for i := len(path) - 1; i >= 0; i-- {
		n, l := path[i].n, level+len(path)-1-i
		if split != nil {
			n.es = append(n.es, *split)
			split = nil
		}
		if len(n.es) > h.fanout {
			if h.rstar && i > 0 && !reinserted[l] {
				reinserted[l] = true
				evicted = evictFarthest(n, evicted, l)
			} else {
				split = h.split(n)
			}
		}
		if i > 0 {
			p := path[i-1]
			p.n.es[p.idx].rect = n.mbr()
		}
	}
	if split != nil {
		old := h.root
		h.root = &hnode{es: []hentry{{rect: old.mbr(), kid: old}, *split}}
		h.height++
	}
	for _, o := range evicted {
		h.insertAt(o.e, o.level, reinserted)
	}
}

// choose picks the child to descend into for r: the one needing the least
// area enlargement (ties: smaller area, then lower index), or with overlap
// set, R*'s rule first: the one whose overlap with its siblings grows the
// least. Two kinds of overlap term are exactly zero and skipped: every term
// when the child already covers r, and any sibling the grown child misses.
// No term is negative — the grown child covers the child, and rounding
// keeps its intersections at least as wide and tall — so a running sum
// never falls, and a child's sum stops once it passes the best so far: that
// child cannot be chosen. The terms still add in entry order, so every sum
// that decides is the full one, bit for bit.
func choose(n *hnode, r geom.Rect, overlap bool) int {
	best := -1
	var bestOv, bestEnl, bestArea float64
	for i, e := range n.es {
		grown := e.rect.Union(r)
		var ov float64
		if overlap && grown != e.rect {
			for j, s := range n.es {
				if j != i && grown.Intersects(s.rect) {
					if ov += overlapArea(grown, s.rect) - overlapArea(e.rect, s.rect); best != -1 && ov > bestOv {
						break
					}
				}
			}
		}
		enl, area := e.rect.EnlargementArea(r), e.rect.Area()
		if best == -1 || ov < bestOv ||
			(ov == bestOv && (enl < bestEnl || (enl == bestEnl && area < bestArea))) {
			best, bestOv, bestEnl, bestArea = i, ov, enl, area
		}
	}
	return best
}

// overlapArea is the area of a ∩ b, 0 when they are disjoint: the same
// float as a.Intersect(b)'s Area, without building the rectangle.
func overlapArea(a, b geom.Rect) float64 {
	w := min(a.MaxX, b.MaxX) - max(a.MinX, b.MinX)
	h := min(a.MaxY, b.MaxY) - max(a.MinY, b.MinY)
	if w < 0 || h < 0 {
		return 0
	}
	return w * h
}

// evictFarthest removes the rstarReinsertFraction of n's entries whose
// centers lie farthest from its MBR's center and appends them to evicted.
func evictFarthest(n *hnode, evicted []orphan, level int) []orphan {
	cx, cy := n.mbr().Center()
	type distEntry struct {
		idx  int
		dist float64
	}
	ds := make([]distEntry, len(n.es))
	for i, e := range n.es {
		ex, ey := e.rect.Center()
		ds[i] = distEntry{idx: i, dist: (ex-cx)*(ex-cx) + (ey-cy)*(ey-cy)}
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a].dist > ds[b].dist })
	drop := make([]bool, len(n.es))
	for _, d := range ds[:max(1, int(float64(len(n.es))*rstarReinsertFraction))] {
		drop[d.idx] = true
		evicted = append(evicted, orphan{e: n.es[d.idx], level: level})
	}
	var keep []hentry
	for i, e := range n.es {
		if !drop[i] {
			keep = append(keep, e)
		}
	}
	n.es = keep
	return evicted
}

// split divides an overflowing node in two: n keeps the first group, and
// the second becomes the returned sibling entry.
func (h *HTree) split(n *hnode) *hentry {
	var g1, g2 []hentry
	if h.rstar {
		g1, g2 = splitRStar(n)
	} else {
		g1, g2 = h.splitQuadratic(n)
	}
	n.es = g1
	right := &hnode{leaf: n.leaf, es: g2}
	return &hentry{rect: right.mbr(), kid: right}
}

// splitQuadratic is Guttman's quadratic split: seed the groups with the
// pair wasting the most area together, then hand out the entry with the
// greatest preference first, unless a group must take the rest to reach
// minFill.
func (h *HTree) splitQuadratic(n *hnode) (g1, g2 []hentry) {
	s1, s2, worst := 0, 1, -1.0
	for i, a := range n.es {
		for j := i + 1; j < len(n.es); j++ {
			b := n.es[j]
			if d := a.rect.Union(b.rect).Area() - a.rect.Area() - b.rect.Area(); d > worst {
				s1, s2, worst = i, j, d
			}
		}
	}
	r1, r2 := geom.EmptyRect(), geom.EmptyRect()
	add := func(first bool, e hentry) {
		if first {
			g1, r1 = append(g1, e), r1.Union(e.rect)
		} else {
			g2, r2 = append(g2, e), r2.Union(e.rect)
		}
	}
	add(true, n.es[s1])
	add(false, n.es[s2])
	var rest []hentry
	for i, e := range n.es {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		if need1, need2 := len(g1)+len(rest) == h.minFill, len(g2)+len(rest) == h.minFill; need1 || need2 {
			for _, e := range rest {
				add(need1, e)
			}
			break
		}
		best, bestDiff := 0, -1.0
		for pos, e := range rest {
			if diff := math.Abs(r1.EnlargementArea(e.rect) - r2.EnlargementArea(e.rect)); diff > bestDiff {
				best, bestDiff = pos, diff
			}
		}
		e := rest[best]
		rest = slices.Delete(rest, best, best+1)
		// Least enlargement wins; ties go to the smaller group area, then
		// to the group with fewer entries.
		d1, d2 := r1.EnlargementArea(e.rect), r2.EnlargementArea(e.rect)
		a1, a2 := r1.Area(), r2.Area()
		add(d1 < d2 || d1 == d2 && (a1 < a2 || a1 == a2 && len(g1) <= len(g2)), e)
	}
	return g1, g2
}

// splitRStar is the R* split: the axis (and corner) whose candidate
// distributions have the least total margin, then the distribution on it
// with the least overlap (ties: least total area). Equal coordinates order
// leaf entries by item id and internal entries by position.
func splitRStar(n *hnode) (g1, g2 []hentry) {
	cnt := len(n.es)
	m := max(1, int(float64(cnt)*rstarMinFillFraction))
	if 2*m > cnt {
		m = cnt / 2
	}
	groups := func(order []int, k int) (left, right geom.Rect) {
		left, right = geom.EmptyRect(), geom.EmptyRect()
		for j, i := range order {
			if j < k {
				left = left.Union(n.es[i].rect)
			} else {
				right = right.Union(n.es[i].rect)
			}
		}
		return left, right
	}
	bestMargin := -1.0
	var bestOrder []int
	for corner := 0; corner < 4; corner++ {
		coord := func(r geom.Rect) float64 { return [4]float64{r.MinX, r.MaxX, r.MinY, r.MaxY}[corner] }
		order := make([]int, cnt)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ea, eb := n.es[order[a]], n.es[order[b]]
			if va, vb := coord(ea.rect), coord(eb.rect); va != vb {
				return va < vb
			}
			if n.leaf {
				return ea.id < eb.id
			}
			return order[a] < order[b]
		})
		margin := 0.0
		for k := m; k <= cnt-m; k++ {
			left, right := groups(order, k)
			margin += left.Perimeter() + right.Perimeter()
		}
		if bestMargin < 0 || margin < bestMargin {
			bestMargin, bestOrder = margin, order
		}
	}
	bestOv, bestArea, bestK := -1.0, 0.0, 0
	for k := m; k <= cnt-m; k++ {
		left, right := groups(bestOrder, k)
		ov, area := overlapArea(left, right), left.Area()+right.Area()
		if bestOv < 0 || ov < bestOv || (ov == bestOv && area < bestArea) {
			bestOv, bestArea, bestK = ov, area, k
		}
	}
	for _, i := range bestOrder[:bestK] {
		g1 = append(g1, n.es[i])
	}
	for _, i := range bestOrder[bestK:] {
		g2 = append(g2, n.es[i])
	}
	return g1, g2
}

// Delete removes the item equal to it, reporting whether one was stored
// (Guttman's Delete): it finds the leaf by containment search, then
// condenses the path.
func (h *HTree) Delete(it geom.Item) bool {
	if h.root == nil {
		return false
	}
	path, idx := findLeaf(h.root, it, nil)
	if path == nil {
		return false
	}
	leaf := path[len(path)-1].n
	leaf.es = slices.Delete(leaf.es, idx, idx+1)
	h.condense(path)
	return true
}

func findLeaf(n *hnode, it geom.Item, prefix []step) ([]step, int) {
	for i, e := range n.es {
		if n.leaf && e.id == it.ID && e.rect == it.Rect {
			return append(slices.Clone(prefix), step{n, -1}), i
		}
		if !n.leaf && e.rect.Contains(it.Rect) {
			if path, idx := findLeaf(e.kid, it, append(prefix, step{n, i})); path != nil {
				return path, idx
			}
		}
	}
	return nil, 0
}

// condense is Guttman's CondenseTree: bottom-up along the deletion path it
// dissolves nodes below minFill and tightens the others' entries, shrinks
// the root while it has one child, and reinserts the dissolved nodes'
// entries at their levels.
func (h *HTree) condense(path []step) {
	var orphans []orphan
	for i := len(path) - 1; i >= 1; i-- {
		n, p := path[i].n, path[i-1]
		if len(n.es) < h.minFill {
			p.n.es = slices.Delete(p.n.es, p.idx, p.idx+1)
			for _, e := range n.es {
				orphans = append(orphans, orphan{e: e, level: h.height - 1 - i})
			}
		} else {
			p.n.es[p.idx].rect = n.mbr()
		}
	}
	for h.height > 1 && len(h.root.es) == 1 {
		h.root = h.root.es[0].kid
		h.height--
	}
	if !h.root.leaf && len(h.root.es) == 0 {
		h.root, h.height = &hnode{leaf: true}, 1
	}
	for _, o := range orphans {
		h.reinsert(o.e, o.level, o.level >= h.height)
	}
}

// reinsert puts an orphaned entry back at its level or, when the tree has
// shrunk below that level (regraft), inserts its subtree's items one by one.
func (h *HTree) reinsert(e hentry, level int, regraft bool) {
	if !regraft || level == 0 {
		h.insertAt(e, level, make(map[int]bool))
		return
	}
	for _, c := range e.kid.es {
		h.reinsert(c, level-1, true)
	}
}
