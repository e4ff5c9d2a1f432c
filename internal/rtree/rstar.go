package rtree

import (
	"sort"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// This file implements the R*-tree insertion heuristics of Beckmann,
// Kriegel, Schneider and Seeger (SIGMOD 1990) — reference [6] of the
// PR-tree paper and the strongest classical update heuristic. The paper's
// Section 4 raises "what happens to the performance when we apply
// heuristic update algorithms" to a bulk-loaded PR-tree as future work;
// experiments.FutureWorkUpdates measures exactly that, using either
// Guttman's or these R* updates.
//
// Enabled via Config.Split = RStarSplit, which switches three behaviors:
//
//   - ChooseSubtree minimizes overlap enlargement at the leaf level
//     (ties: area enlargement, then area) instead of pure area enlargement;
//   - the first overflow of each level per insertion triggers a forced
//     reinsertion of the 30% of entries farthest from the node center;
//   - node splits pick the axis with the minimum margin sum and the
//     distribution with minimum overlap (ties: minimum total area).

// rstarReinsertFraction is the share of entries evicted on first overflow.
const rstarReinsertFraction = 0.30

// rstarMinFillFraction is the m/M ratio of candidate split distributions.
const rstarMinFillFraction = 0.40

// insertRStar is the R* analogue of insertAtLevel. reinsertedLevels tracks
// which levels already used their forced reinsertion for this logical
// insertion (R* allows one per level).
func (t *Tree) insertRStar(r geom.Rect, ref uint32, level int, reinserted map[int]bool) {
	path := t.choosePathRStar(r, level)
	target := path[len(path)-1]
	target.n.append(r, ref)
	t.adjustPathRStar(path, level, reinserted)
}

// choosePathRStar descends to targetLevel using the R* ChooseSubtree rule.
func (t *Tree) choosePathRStar(r geom.Rect, targetLevel int) []pathStep {
	path := make([]pathStep, 0, t.height)
	id := t.root
	for level := t.height - 1; ; level-- {
		n := t.readNode(id)
		step := pathStep{page: id, n: n, childIdx: -1}
		if level == targetLevel {
			path = append(path, step)
			return path
		}
		var best int
		if level == targetLevel+1 {
			best = chooseByOverlap(n, r)
		} else {
			best = chooseByArea(n, r)
		}
		step.childIdx = best
		path = append(path, step)
		id = storage.PageID(n.refs[best])
	}
}

// chooseByArea picks the child needing the least area enlargement.
func chooseByArea(n *node, r geom.Rect) int {
	best := -1
	var bestEnl, bestArea float64
	for i := range n.rects {
		enl := n.rects[i].EnlargementArea(r)
		area := n.rects[i].Area()
		if best == -1 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// chooseByOverlap picks the child whose overlap with its siblings grows
// the least when enlarged to cover r (the R* rule for the level above the
// leaves), with area enlargement and area as tie-breaks.
func chooseByOverlap(n *node, r geom.Rect) int {
	best := -1
	var bestOv, bestEnl, bestArea float64
	for i := range n.rects {
		grown := n.rects[i].Union(r)
		var ov float64
		for j := range n.rects {
			if j == i {
				continue
			}
			ov += overlapArea(grown, n.rects[j]) - overlapArea(n.rects[i], n.rects[j])
		}
		enl := n.rects[i].EnlargementArea(r)
		area := n.rects[i].Area()
		if best == -1 || ov < bestOv ||
			(ov == bestOv && (enl < bestEnl || (enl == bestEnl && area < bestArea))) {
			best, bestOv, bestEnl, bestArea = i, ov, enl, area
		}
	}
	return best
}

func overlapArea(a, b geom.Rect) float64 {
	iv, ok := a.Intersect(b)
	if !ok {
		return 0
	}
	return iv.Area()
}

// adjustPathRStar propagates writes, splits and forced reinsertions.
func (t *Tree) adjustPathRStar(path []pathStep, targetLevel int, reinserted map[int]bool) {
	var split *ChildEntry
	// Entries evicted for reinsertion, grouped with their level.
	var evicted []orphan
	for i := len(path) - 1; i >= 0; i-- {
		step := path[i]
		n := step.n
		level := targetLevel + (len(path) - 1 - i)
		if split != nil {
			n.append(split.Rect, uint32(split.Page))
			split = nil
		}
		switch {
		case !t.overflows(n):
			t.writeNode(step.page, n)
		case i > 0 && !reinserted[level]:
			// Forced reinsertion: evict the entries farthest from the
			// node's center, reinsert them after the pass.
			reinserted[level] = true
			n = t.evictFarthest(n, &evicted, level)
			t.writeNode(step.page, n)
		default:
			n, split = t.splitWrite(step.page, n)
		}
		if i > 0 {
			parent := path[i-1]
			parent.n.rects[parent.childIdx] = n.mbr()
		}
	}
	t.growRoot(split)
	for _, o := range evicted {
		t.insertRStar(o.rect, o.ref, o.level, reinserted)
	}
}

// evictFarthest removes the rstarReinsertFraction entries whose centers
// are farthest from the node's MBR center, appending them to evicted, and
// returns the kept node.
func (t *Tree) evictFarthest(n *node, evicted *[]orphan, level int) *node {
	cx, cy := n.mbr().Center()
	type distEntry struct {
		idx  int
		dist float64
	}
	ds := make([]distEntry, n.count())
	for i := range n.rects {
		ex, ey := n.rects[i].Center()
		dx, dy := ex-cx, ey-cy
		ds[i] = distEntry{idx: i, dist: dx*dx + dy*dy}
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a].dist > ds[b].dist })
	nEvict := int(float64(n.count()) * rstarReinsertFraction)
	if nEvict < 1 {
		nEvict = 1
	}
	drop := make(map[int]bool, nEvict)
	for _, d := range ds[:nEvict] {
		drop[d.idx] = true
		*evicted = append(*evicted, orphan{rect: n.rects[d.idx], ref: n.refs[d.idx], level: level})
	}
	keep := &node{kind: n.kind}
	for i := range n.rects {
		if !drop[i] {
			keep.append(n.rects[i], n.refs[i])
		}
	}
	return keep
}

// splitRStar implements the R* topological split: choose the axis with the
// minimum total margin over all candidate distributions, then the
// distribution with minimum overlap (ties: minimum combined area).
func (t *Tree) splitRStar(n *node) (*node, *node) {
	m := int(float64(n.count()) * rstarMinFillFraction)
	if m < 1 {
		m = 1
	}
	if 2*m > n.count() {
		m = n.count() / 2
	}

	type dist struct {
		order []int
		k     int // left group size
	}
	bestAxisMargin := -1.0
	var bestAxisDists []dist
	for axis := 0; axis < 2; axis++ {
		for _, byUpper := range []bool{false, true} {
			order := make([]int, n.count())
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool {
				ra, rb := n.rects[order[a]], n.rects[order[b]]
				var va, vb float64
				switch {
				case axis == 0 && !byUpper:
					va, vb = ra.MinX, rb.MinX
				case axis == 0 && byUpper:
					va, vb = ra.MaxX, rb.MaxX
				case axis == 1 && !byUpper:
					va, vb = ra.MinY, rb.MinY
				default:
					va, vb = ra.MaxY, rb.MaxY
				}
				if va != vb {
					return va < vb
				}
				return n.refs[order[a]] < n.refs[order[b]]
			})
			var dists []dist
			margin := 0.0
			for k := m; k <= n.count()-m; k++ {
				left, right := groupRects(n, order, k)
				margin += left.Perimeter() + right.Perimeter()
				dists = append(dists, dist{order: order, k: k})
			}
			if bestAxisMargin < 0 || margin < bestAxisMargin {
				bestAxisMargin = margin
				bestAxisDists = dists
			}
		}
	}

	bestOv, bestArea := -1.0, 0.0
	var best dist
	for _, d := range bestAxisDists {
		left, right := groupRects(n, d.order, d.k)
		ov := overlapArea(left, right)
		area := left.Area() + right.Area()
		if bestOv < 0 || ov < bestOv || (ov == bestOv && area < bestArea) {
			bestOv, bestArea, best = ov, area, d
		}
	}
	g1 := &node{kind: n.kind}
	g2 := &node{kind: n.kind}
	for i, idx := range best.order {
		if i < best.k {
			g1.append(n.rects[idx], n.refs[idx])
		} else {
			g2.append(n.rects[idx], n.refs[idx])
		}
	}
	return g1, g2
}

func groupRects(n *node, order []int, k int) (geom.Rect, geom.Rect) {
	left := geom.EmptyRect()
	for _, idx := range order[:k] {
		left = left.Union(n.rects[idx])
	}
	right := geom.EmptyRect()
	for _, idx := range order[k:] {
		right = right.Union(n.rects[idx])
	}
	return left, right
}
