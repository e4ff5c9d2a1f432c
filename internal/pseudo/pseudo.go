package pseudo

import (
	"fmt"

	"prtree/internal/geom"
	"prtree/internal/parallel"
)

// PriorityDirs names the four priority-leaf directions in construction
// order: leftmost left edges, bottommost bottom edges, rightmost right
// edges, topmost top edges.
var PriorityDirs = [4]string{"xmin", "ymin", "xmax", "ymax"}

// Node is a pseudo-PR-tree node. A node is either a plain leaf (Items set,
// everything else empty) or an internal kd-node with up to four priority
// leaves and up to two children. Unlike a real R-tree, leaves appear at
// every level and internal nodes have degree at most six.
type Node struct {
	// Bounds is the minimal bounding box of every rectangle below the node.
	Bounds geom.Rect
	// Items is set for plain leaves only (at most B rectangles).
	Items []geom.Item
	// Priority holds the four priority leaves (index = direction; empty
	// slices mean the leaf does not exist).
	Priority [4][]geom.Item
	// Axis is the kd split axis (0..3) used to divide the remaining items.
	Axis int
	// SplitValue is the dividing coordinate on Axis.
	SplitValue float64
	// Left and Right are the recursive pseudo-PR-trees (nil when the
	// remaining set was empty).
	Left, Right *Node
}

// IsLeaf reports whether n is a plain leaf.
func (n *Node) IsLeaf() bool { return n.Items != nil }

// Tree is a pseudo-PR-tree together with its construction parameters.
type Tree struct {
	Root *Node
	B    int // leaf capacity
	N    int // rectangles stored
}

// forkItems is the least kd remainder whose two children build on separate
// goroutines. Each child of a remainder this size is about a millisecond
// of selection work, beside which a goroutine hand-off and join are noise.
const forkItems = 4096

// Build constructs a pseudo-PR-tree with leaf capacity B on items using the
// exact recursive definition of Section 2.1: priority leaves are peeled off
// before the kd median is taken. The input slice is reordered in place.
// Divisions round to multiples of B (the paper's near-100%-utilization
// refinement) when roundToB is true.
//
// workers bounds the goroutines the kd recursion may occupy (clamped to
// GOMAXPROCS; one or less means serial). The two children of a kd node are
// disjoint subslices and every selection's pivots depend on its own input
// alone, so the tree — nodes, leaf membership and the order of items
// within each leaf — is the same at every setting.
func Build(items []geom.Item, b int, roundToB bool, workers int) *Tree {
	return buildTree(items, b, roundToB, true, parallel.Bound(workers))
}

// BuildKDOnly constructs the ablated structure: the same four-dimensional
// kd-tree over the corner transform but WITHOUT priority leaves — i.e. the
// plain kd partition the PR-tree would be, were the paper's priority-leaf
// idea removed. It exists to measure how much of the worst-case robustness
// the priority leaves themselves contribute (see experiments.AblationPriority).
func BuildKDOnly(items []geom.Item, b int, roundToB bool) *Tree {
	return buildTree(items, b, roundToB, false, 1)
}

func buildTree(items []geom.Item, b int, roundToB, priority bool, workers int) *Tree {
	if b < 1 {
		panic(fmt.Sprintf("pseudo: leaf capacity %d", b))
	}
	t := &Tree{B: b, N: len(items)}
	if len(items) > 0 {
		if priority {
			t.Root = build(items, b, 0, roundToB, workers)
		} else {
			t.Root = buildKD(items, b, 0, roundToB)
		}
	}
	return t
}

// buildKD is the no-priority-leaf variant: a pure kd-tree whose leaves
// hold at most b items.
func buildKD(items []geom.Item, b, axis int, roundToB bool) *Node {
	n := &Node{Axis: axis & 3, Bounds: geom.ItemsMBR(items)}
	if len(items) <= b {
		n.Items = items
		return n
	}
	half := len(items) / 2
	if roundToB {
		if r := (half / b) * b; r > 0 {
			half = r
		}
	}
	selectK(items, half, axisOrder(n.Axis))
	n.SplitValue = minCoord(items[half:], n.Axis)
	n.Left = buildKD(items[:half:half], b, axis+1, roundToB)
	n.Right = buildKD(items[half:], b, axis+1, roundToB)
	return n
}

// minCoord returns the least axis coordinate among items. After a kd
// selection it is the split value: quickselect only guarantees that the
// left side orders before the right side element-wise, not that the first
// right-side item is the minimum of its side.
func minCoord(items []geom.Item, axis int) float64 {
	min := items[0].Rect.Coord(axis)
	for i := 1; i < len(items); i++ {
		if v := items[i].Rect.Coord(axis); v < min {
			min = v
		}
	}
	return min
}

// build is the recursive construction. workers is the number of goroutines
// this subtree may keep busy, the caller's included.
func build(items []geom.Item, b, axis int, roundToB bool, workers int) *Node {
	n := &Node{Axis: axis & 3, Bounds: geom.ItemsMBR(items)}
	if len(items) <= b {
		n.Items = items
		return n
	}

	if len(items) <= 4*b {
		// Too few rectangles to fill four priority leaves and recurse:
		// split evenly into <= 4 priority leaves of >= len/4 >= B/4 each
		// (footnote 2 + the "slightly smaller priority leaves" refinement),
		// leaving no remainder.
		rest := items
		groups := (len(items) + b - 1) / b
		for dir := 0; dir < groups; dir++ {
			take := len(rest) / (groups - dir)
			if dir == groups-1 {
				take = len(rest)
			}
			selectK(rest, take, extremeOrder(dir))
			n.Priority[dir] = rest[:take:take]
			rest = rest[take:]
		}
		return n
	}

	rest := items
	for dir := 0; dir < 4; dir++ {
		selectK(rest, b, extremeOrder(dir))
		n.Priority[dir] = rest[:b:b]
		rest = rest[b:]
	}

	// kd-split the remainder on the round-robin axis. Rounding the division
	// to a multiple of B keeps kd leaves full (the paper's near-100%
	// utilization refinement); when that rounds to zero the remainder is
	// small enough to hang off a single child, which the recursion then
	// splits into full leaves.
	half := len(rest) / 2
	if roundToB {
		half = (half / b) * b
	}
	if half == 0 || half == len(rest) {
		// Cannot split (all remaining on one side); make a child leaf.
		n.Left = build(rest, b, axis+1, roundToB, workers)
		n.SplitValue = rest[0].Rect.Coord(n.Axis)
		return n
	}
	selectK(rest, half, axisOrder(n.Axis))
	n.SplitValue = minCoord(rest[half:], n.Axis)
	left, right := rest[:half:half], rest[half:]
	if workers < 2 || len(rest) < forkItems {
		n.Left = build(left, b, axis+1, roundToB, workers)
		n.Right = build(right, b, axis+1, roundToB, workers)
		return n
	}
	// The halves are near-equal, so the budget splits evenly between them.
	// Run re-raises a child's panic here once both have stopped.
	parallel.Run(2, 2, func(i int) {
		if i == 0 {
			n.Left = build(left, b, axis+1, roundToB, workers/2)
		} else {
			n.Right = build(right, b, axis+1, roundToB, workers-workers/2)
		}
	})
	return n
}

// LeafGroup is one leaf of the pseudo-PR-tree: either a priority leaf or a
// plain kd leaf. The PR-tree construction of Section 2.2 keeps exactly
// these groups (as R-tree nodes) and discards the internal kd structure.
type LeafGroup struct {
	Items    []geom.Item
	Priority bool // true for priority leaves
	Dir      int  // priority direction when Priority
}

// Leaves returns every leaf group in depth-first order (priority leaves of
// a node before its children), which keeps spatially coherent groups
// adjacent for the level above.
func (t *Tree) Leaves() []LeafGroup {
	var out []LeafGroup
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			out = append(out, LeafGroup{Items: n.Items})
			return
		}
		for dir := 0; dir < 4; dir++ {
			if len(n.Priority[dir]) > 0 {
				out = append(out, LeafGroup{Items: n.Priority[dir], Priority: true, Dir: dir})
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	return out
}

// QueryStats counts the work of one pseudo-PR-tree window query in blocks:
// each internal node occupies O(1) blocks and each (priority or plain)
// leaf one block.
type QueryStats struct {
	InternalVisited int
	LeavesVisited   int
	Results         int
}

// Query reports every rectangle intersecting q to fn and returns the visit
// statistics. Traversal follows the standard R-tree procedure: visit every
// child whose bounding box intersects q.
func (t *Tree) Query(q geom.Rect, fn func(geom.Item) bool) QueryStats {
	var st QueryStats
	if t.Root != nil {
		t.query(t.Root, q, fn, &st)
	}
	return st
}

func (t *Tree) query(n *Node, q geom.Rect, fn func(geom.Item) bool, st *QueryStats) bool {
	if n.IsLeaf() {
		st.LeavesVisited++
		return scanLeaf(n.Items, q, fn, st)
	}
	st.InternalVisited++
	for dir := 0; dir < 4; dir++ {
		p := n.Priority[dir]
		if len(p) == 0 {
			continue
		}
		if q.Intersects(geom.ItemsMBR(p)) {
			st.LeavesVisited++
			if !scanLeaf(p, q, fn, st) {
				return false
			}
		}
	}
	for _, c := range []*Node{n.Left, n.Right} {
		if c != nil && q.Intersects(c.Bounds) {
			if !t.query(c, q, fn, st) {
				return false
			}
		}
	}
	return true
}

func scanLeaf(items []geom.Item, q geom.Rect, fn func(geom.Item) bool, st *QueryStats) bool {
	for _, it := range items {
		if q.Intersects(it.Rect) {
			st.Results++
			if fn != nil && !fn(it) {
				return false
			}
		}
	}
	return true
}

// Validate checks the pseudo-PR-tree invariants and returns the first
// violation:
//
//   - Bounds is the exact MBR of the subtree;
//   - leaf and priority-leaf sizes are within capacity;
//   - every priority leaf contains the extreme rectangles of the whole
//     subtree below its node in its direction (after earlier leaves are
//     removed);
//   - kd children satisfy the split: left items have Coord(axis) <= split,
//     right items >= split (on the splitting key with tie-break);
//   - total item count matches.
func (t *Tree) Validate() error {
	if t.Root == nil {
		if t.N != 0 {
			return fmt.Errorf("pseudo: nil root with N=%d", t.N)
		}
		return nil
	}
	n, err := validate(t.Root, t.B)
	if err != nil {
		return err
	}
	if n != t.N {
		return fmt.Errorf("pseudo: %d items found, tree reports %d", n, t.N)
	}
	return nil
}

func validate(n *Node, b int) (int, error) {
	subtree := collect(n, nil)
	if got := geom.ItemsMBR(subtree); got != n.Bounds {
		return 0, fmt.Errorf("pseudo: bounds %v, actual MBR %v", n.Bounds, got)
	}
	if n.IsLeaf() {
		if len(n.Items) == 0 || len(n.Items) > b {
			return 0, fmt.Errorf("pseudo: leaf with %d items (capacity %d)", len(n.Items), b)
		}
		return len(n.Items), nil
	}
	// Priority extremity: leaf dir's worst member must be at least as
	// extreme as every rectangle in later leaves and the children.
	remaining := subtree
	count := 0
	for dir := 0; dir < 4; dir++ {
		p := n.Priority[dir]
		if len(p) > b {
			return 0, fmt.Errorf("pseudo: priority leaf %s with %d items", PriorityDirs[dir], len(p))
		}
		if len(p) == 0 {
			continue
		}
		count += len(p)
		less := extremeOrder(dir).less
		// Find the least extreme member of p.
		worst := p[0]
		inLeaf := make(map[uint32]bool, len(p))
		for _, it := range p {
			if less(worst, it) {
				worst = it
			}
			inLeaf[it.ID] = true
		}
		next := remaining[:0:0]
		for _, it := range remaining {
			if !inLeaf[it.ID] {
				next = append(next, it)
			}
		}
		remaining = next
		for _, it := range remaining {
			if less(it, worst) {
				return 0, fmt.Errorf("pseudo: %s priority leaf misses more-extreme item %d", PriorityDirs[dir], it.ID)
			}
		}
	}
	// kd split invariant: all subtree items of the left child order at or
	// below the split coordinate, right child at or above (items equal to
	// the split value may sit on either side thanks to the id tie-break).
	if n.Left != nil && n.Right != nil {
		for _, it := range collect(n.Left, nil) {
			if it.Rect.Coord(n.Axis) > n.SplitValue {
				return 0, fmt.Errorf("pseudo: left child item %d violates split %g on axis %d", it.ID, n.SplitValue, n.Axis)
			}
		}
		for _, it := range collect(n.Right, nil) {
			if it.Rect.Coord(n.Axis) < n.SplitValue {
				return 0, fmt.Errorf("pseudo: right child item %d violates split %g on axis %d", it.ID, n.SplitValue, n.Axis)
			}
		}
	}
	for _, c := range []*Node{n.Left, n.Right} {
		if c == nil {
			continue
		}
		cn, err := validate(c, b)
		if err != nil {
			return 0, err
		}
		count += cn
	}
	return count, nil
}

func collect(n *Node, out []geom.Item) []geom.Item {
	if n == nil {
		return out
	}
	if n.IsLeaf() {
		return append(out, n.Items...)
	}
	for dir := 0; dir < 4; dir++ {
		out = append(out, n.Priority[dir]...)
	}
	out = collect(n.Left, out)
	return collect(n.Right, out)
}

// Items returns every rectangle stored in the tree.
func (t *Tree) Items() []geom.Item {
	return collect(t.Root, nil)
}
