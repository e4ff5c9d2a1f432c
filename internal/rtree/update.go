package rtree

import (
	"fmt"
	"runtime/debug"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// Insert adds an item using the configured dynamic insertion algorithm:
// Guttman's ChooseLeaf + quadratic/linear split by default, or the full
// R*-tree heuristics when Config.Split is RStarSplit. The paper notes a
// bulk-loaded PR-tree "can be updated in O(log_B N) I/Os using the
// standard R-tree updating algorithms" — at the cost of its worst-case
// query guarantee; these are those standard algorithms.
func (t *Tree) Insert(it geom.Item) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // see readView
	if t.root == storage.NilPage {
		t.root = t.allocNode(&node{kind: kindLeaf})
		t.height = 1
	}
	if t.cfg.Split == RStarSplit {
		t.insertRStar(it.Rect, it.ID, 0, make(map[int]bool))
	} else {
		t.insertAtLevel(it.Rect, it.ID, 0)
	}
	t.nItems++
}

// pathStep records one node on a root-to-target descent.
type pathStep struct {
	page     storage.PageID
	n        *node
	childIdx int // index taken to descend; -1 at the target node
}

// insertAtLevel places an entry (rect, ref) into a node at the given level,
// where level 0 is the leaf level. Items are inserted at level 0; orphaned
// child entries from CondenseTree are reinserted at their original level.
func (t *Tree) insertAtLevel(r geom.Rect, ref uint32, level int) {
	path := t.choosePath(r, level)
	target := path[len(path)-1]
	if target.n.isLeaf() != (level == 0) {
		panic("rtree: internal error, wrong target level")
	}
	target.n.append(r, ref)
	t.adjustPath(path)
}

// choosePath descends from the root to a node at targetLevel, choosing at
// each step the child needing the least area enlargement (ties: smaller
// area, then lower index).
func (t *Tree) choosePath(r geom.Rect, targetLevel int) []pathStep {
	path := make([]pathStep, 0, t.height)
	id := t.root
	for level := t.height - 1; ; level-- {
		n := t.readNode(id)
		step := pathStep{page: id, n: n, childIdx: -1}
		if level == targetLevel {
			path = append(path, step)
			return path
		}
		best := -1
		var bestEnl, bestArea float64
		for i := range n.rects {
			enl := n.rects[i].EnlargementArea(r)
			area := n.rects[i].Area()
			if best == -1 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		if best == -1 {
			panic("rtree: choosePath hit empty internal node")
		}
		step.childIdx = best
		path = append(path, step)
		id = storage.PageID(n.refs[best])
	}
}

// adjustPath writes the modified target node, splitting on overflow, and
// propagates MBR updates and the split's new sibling to the root
// (AdjustTree).
func (t *Tree) adjustPath(path []pathStep) {
	// split is the new sibling entry to add one level up, if any.
	var split *ChildEntry
	for i := len(path) - 1; i >= 0; i-- {
		step := path[i]
		n := step.n
		if split != nil {
			n.append(split.Rect, uint32(split.Page))
			split = nil
		}
		if t.overflows(n) {
			n, split = t.splitWrite(step.page, n)
		} else {
			t.writeNode(step.page, n)
		}
		if i > 0 {
			parent := path[i-1]
			parent.n.rects[parent.childIdx] = n.mbr()
		}
	}
	t.growRoot(split)
}

// growRoot puts a new root over the old one and the sibling its split
// produced, if the split reached the root.
func (t *Tree) growRoot(split *ChildEntry) {
	if split == nil {
		return
	}
	root := &node{kind: kindInternal}
	root.append(t.readNode(t.root).mbr(), uint32(t.root))
	root.append(split.Rect, uint32(split.Page))
	t.root = t.allocNode(root)
	t.height++
}

// splitWrite splits a node that overflows by one entry in two, writes the
// first half back to its page and the second to a new one, and returns the
// first half and the new page's entry for the level above. Each half holds
// at most the fanout: a split leaves at least one entry on either side.
func (t *Tree) splitWrite(page storage.PageID, n *node) (*node, *ChildEntry) {
	left, right := t.splitNode(n)
	t.writeNode(page, left)
	return left, &ChildEntry{Rect: right.mbr(), Page: t.allocNode(right)}
}

// splitNode divides an overflowing node into two per the configured
// heuristic. The returned nodes have the same kind as n.
func (t *Tree) splitNode(n *node) (*node, *node) {
	var s1, s2 int
	switch t.cfg.Split {
	case LinearSplit:
		s1, s2 = t.pickSeedsLinear(n)
	case RStarSplit:
		return t.splitRStar(n)
	default:
		s1, s2 = t.pickSeedsQuadratic(n)
	}
	return t.splitGuttman(n, s1, s2)
}

// pickSeedsQuadratic returns the pair of entries wasting the most area if
// grouped together (Guttman's quadratic PickSeeds).
func (t *Tree) pickSeedsQuadratic(n *node) (int, int) {
	s1, s2 := 0, 1
	worst := -1.0
	for i := 0; i < n.count(); i++ {
		for j := i + 1; j < n.count(); j++ {
			d := n.rects[i].Union(n.rects[j]).Area() - n.rects[i].Area() - n.rects[j].Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	return s1, s2
}

// pickSeedsLinear returns the pair with the greatest normalized separation
// along any dimension (Guttman's linear PickSeeds).
func (t *Tree) pickSeedsLinear(n *node) (int, int) {
	type extreme struct {
		highLow, lowHigh   int
		highLowV, lowHighV float64
		lowest, highest    float64
	}
	dims := [2]extreme{}
	for d := 0; d < 2; d++ {
		e := &dims[d]
		e.highLow, e.lowHigh = -1, -1
		for i := 0; i < n.count(); i++ {
			var lo, hi float64
			if d == 0 {
				lo, hi = n.rects[i].MinX, n.rects[i].MaxX
			} else {
				lo, hi = n.rects[i].MinY, n.rects[i].MaxY
			}
			if i == 0 {
				e.lowest, e.highest = lo, hi
			} else {
				if lo < e.lowest {
					e.lowest = lo
				}
				if hi > e.highest {
					e.highest = hi
				}
			}
			if e.highLow == -1 || lo > e.highLowV {
				e.highLow, e.highLowV = i, lo
			}
			if e.lowHigh == -1 || hi < e.lowHighV {
				e.lowHigh, e.lowHighV = i, hi
			}
		}
	}
	bestDim, bestSep := 0, -1.0
	for d := 0; d < 2; d++ {
		e := &dims[d]
		width := e.highest - e.lowest
		sep := e.highLowV - e.lowHighV
		if width > 0 {
			sep /= width
		}
		if sep > bestSep {
			bestSep, bestDim = sep, d
		}
	}
	s1, s2 := dims[bestDim].lowHigh, dims[bestDim].highLow
	if s1 == s2 {
		// Degenerate (all equal): fall back to the first two entries.
		s1, s2 = 0, 1
	}
	if s1 > s2 {
		s1, s2 = s2, s1
	}
	return s1, s2
}

// splitGuttman distributes entries into two groups seeded by (s1, s2),
// assigning each remaining entry to the group whose bounding box needs the
// least enlargement (PickNext uses the max-preference entry first for the
// quadratic flavor; for simplicity and equal quality we use the same
// assignment loop for both, which matches Guttman's linear variant and is
// a standard implementation of the quadratic one).
func (t *Tree) splitGuttman(n *node, s1, s2 int) (*node, *node) {
	g1 := &node{kind: n.kind}
	g2 := &node{kind: n.kind}
	g1.append(n.rects[s1], n.refs[s1])
	g2.append(n.rects[s2], n.refs[s2])
	r1, r2 := n.rects[s1], n.rects[s2]

	rest := make([]int, 0, n.count()-2)
	for i := 0; i < n.count(); i++ {
		if i != s1 && i != s2 {
			rest = append(rest, i)
		}
	}
	minFill := t.cfg.MinFill
	for len(rest) > 0 {
		// Min-fill guard: if one group must absorb everything left.
		if g1.count()+len(rest) == minFill {
			for _, i := range rest {
				g1.append(n.rects[i], n.refs[i])
				r1 = r1.Union(n.rects[i])
			}
			break
		}
		if g2.count()+len(rest) == minFill {
			for _, i := range rest {
				g2.append(n.rects[i], n.refs[i])
				r2 = r2.Union(n.rects[i])
			}
			break
		}
		// PickNext: entry with the greatest preference difference.
		bestIdx, bestPos := -1, -1
		bestDiff := -1.0
		for pos, i := range rest {
			d1 := r1.EnlargementArea(n.rects[i])
			d2 := r2.EnlargementArea(n.rects[i])
			diff := d1 - d2
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff, bestIdx, bestPos = diff, i, pos
			}
		}
		rest = append(rest[:bestPos], rest[bestPos+1:]...)
		d1 := r1.EnlargementArea(n.rects[bestIdx])
		d2 := r2.EnlargementArea(n.rects[bestIdx])
		toFirst := d1 < d2
		if d1 == d2 {
			if a1, a2 := r1.Area(), r2.Area(); a1 != a2 {
				toFirst = a1 < a2
			} else {
				toFirst = g1.count() <= g2.count()
			}
		}
		if toFirst {
			g1.append(n.rects[bestIdx], n.refs[bestIdx])
			r1 = r1.Union(n.rects[bestIdx])
		} else {
			g2.append(n.rects[bestIdx], n.refs[bestIdx])
			r2 = r2.Union(n.rects[bestIdx])
		}
	}
	return g1, g2
}

// Delete removes the item with the given rect and id, returning false if
// no such item is stored. It implements Guttman's Delete with CondenseTree:
// underfull nodes are dissolved and their entries reinserted at their
// original level; the root is collapsed when it has a single child.
func (t *Tree) Delete(it geom.Item) bool {
	if t.root == storage.NilPage {
		return false
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // see readView
	path, idx := t.findLeaf(t.root, t.height-1, it, nil)
	if path == nil {
		return false
	}
	leaf := path[len(path)-1]
	leaf.n.remove(idx)
	t.nItems--
	t.condense(path)
	return true
}

// findLeaf locates the leaf containing it via depth-first search guided by
// rectangle containment, returning the access path and the entry index.
func (t *Tree) findLeaf(id storage.PageID, level int, it geom.Item, prefix []pathStep) ([]pathStep, int) {
	n := t.readNode(id)
	step := pathStep{page: id, n: n, childIdx: -1}
	if n.isLeaf() {
		for i := range n.rects {
			if n.refs[i] == it.ID && n.rects[i] == it.Rect {
				return append(append([]pathStep{}, prefix...), step), i
			}
		}
		return nil, 0
	}
	for i := range n.rects {
		if n.rects[i].Contains(it.Rect) {
			step.childIdx = i
			path, idx := t.findLeaf(storage.PageID(n.refs[i]), level-1, it, append(prefix, step))
			if path != nil {
				return path, idx
			}
		}
	}
	return nil, 0
}

// orphan is a subtree entry cut loose by CondenseTree, remembered with the
// level it must be reinserted at.
type orphan struct {
	rect  geom.Rect
	ref   uint32
	level int
}

// condense walks the deletion path bottom-up, dissolving underfull nodes
// and reinserting their entries (Guttman's CondenseTree).
func (t *Tree) condense(path []pathStep) {
	var orphans []orphan
	for i := len(path) - 1; i >= 1; i-- {
		step := path[i]
		level := t.height - 1 - i // level of this node (0 = leaf)
		parent := path[i-1]
		if step.n.count() < t.cfg.MinFill {
			// Dissolve: detach from parent, orphan the entries.
			parent.n.remove(parent.childIdx)
			// Re-point later siblings: removing shifts indices, but
			// parent.childIdx references are fixed per level, and we only
			// use parent.childIdx of this path, which we just consumed.
			for j := range step.n.rects {
				orphans = append(orphans, orphan{rect: step.n.rects[j], ref: step.n.refs[j], level: level})
			}
			t.freeNode(step.page)
		} else {
			t.writeNode(step.page, step.n)
			parent.n.rects[parent.childIdx] = step.n.mbr()
		}
	}
	// Root.
	root := path[0]
	t.writeNode(root.page, root.n)

	// Shrink the root while it is internal with a single child.
	for t.height > 1 {
		rn := t.readNode(t.root)
		if rn.count() != 1 {
			break
		}
		child := storage.PageID(rn.refs[0])
		t.freeNode(t.root)
		t.root = child
		t.height--
	}
	// The root may have become an empty internal node if everything was
	// orphaned; normalize to an empty leaf.
	rn := t.readNode(t.root)
	if !rn.isLeaf() && rn.count() == 0 {
		t.writeNode(t.root, &node{kind: kindLeaf})
		t.height = 1
	}

	// Reinsert orphans, deepest level last (items first keeps the height
	// stable while subtree entries still fit their recorded level).
	for _, o := range orphans {
		if o.level >= t.height {
			// The tree shrank below the orphan's level; re-graft the
			// subtree's descendants item by item.
			t.regraft(o)
			continue
		}
		t.reinsertEntry(o)
	}
}

// reinsertEntry routes an orphaned entry through the configured insertion
// heuristic at its recorded level.
func (t *Tree) reinsertEntry(o orphan) {
	if t.cfg.Split == RStarSplit {
		t.insertRStar(o.rect, o.ref, o.level, make(map[int]bool))
	} else {
		t.insertAtLevel(o.rect, o.ref, o.level)
	}
}

// regraft reinserts every item under an orphaned subtree whose level no
// longer exists (possible after aggressive shrinking).
func (t *Tree) regraft(o orphan) {
	if o.level == 0 {
		t.reinsertEntry(orphan{rect: o.rect, ref: o.ref, level: 0})
		return
	}
	id := storage.PageID(o.ref)
	n := t.readNode(id)
	for i := range n.rects {
		t.regraft(orphan{rect: n.rects[i], ref: n.refs[i], level: o.level - 1})
	}
	t.freeNode(id)
}

// mustValidate is a debug helper that panics on invariant violation.
func (t *Tree) mustValidate() {
	if err := t.Validate(); err != nil {
		panic(fmt.Sprintf("rtree: %v", err))
	}
}
