package pseudo

import (
	"fmt"
	"math"
	"slices"

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
// every level and internal nodes have degree at most six. A node names its
// members by their index into the tree's input, which the construction
// never writes.
type Node struct {
	// Bounds is the minimal bounding box of every rectangle below the node.
	Bounds geom.Rect
	// Items is set for plain leaves only (at most B members).
	Items []int32
	// Priority holds the four priority leaves (index = direction; empty
	// slices mean the leaf does not exist).
	Priority [4][]int32
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

	items []geom.Item // the input the nodes index
}

// forkItems is the least kd remainder whose two children build on separate
// goroutines. Each child of a remainder this size is about a millisecond
// of selection work, beside which a goroutine hand-off and join are noise.
const forkItems = 4096

// Build constructs a pseudo-PR-tree with leaf capacity B on items using the
// exact recursive definition of Section 2.1: priority leaves are peeled off
// before the kd median is taken. Divisions round to multiples of B (the
// paper's near-100%-utilization refinement) when roundToB is true.
//
// items is read, never written, and must stay unchanged while the tree is
// in use: the construction selects over a permutation of its indices (four
// bytes a record), and the nodes name their members by index into it.
// Leaves, EachLeaf and Gather fetch the members back. Besides the
// permutation and the nodes, each goroutine that peels a window of
// fusedMin records or more holds peel scratch: 20·B candidates of 16 bytes
// and 8·B positions of four (about 40 KB at B = 113).
//
// workers bounds the goroutines the kd recursion may occupy (clamped to
// GOMAXPROCS; one or less means serial). The two children of a kd node are
// disjoint parts of the permutation and every selection's pivots depend on
// its own part alone, so the tree — nodes, leaf membership and the order of
// items within each leaf — is the same at every setting.
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
	if len(items) > math.MaxInt32 {
		panic(fmt.Sprintf("pseudo: %d items exceed an int32 permutation", len(items)))
	}
	t := &Tree{B: b, N: len(items), items: items}
	if len(items) == 0 {
		return t
	}
	ids := make([]int32, len(items))
	for i := range ids {
		ids[i] = int32(i)
	}
	if priority {
		t.Root = t.build(ids, 0, roundToB, workers, nil)
	} else {
		t.Root = t.buildKD(ids, 0, roundToB)
	}
	return t
}

// Gather appends the items ids names — a leaf's members, from LeafIDs —
// to dst.
func (t *Tree) Gather(dst []geom.Item, ids []int32) []geom.Item {
	for _, id := range ids {
		dst = append(dst, t.items[id])
	}
	return dst
}

// mbr returns the bounding box of the non-empty set ids names.
func (t *Tree) mbr(ids []int32) geom.Rect {
	out := t.items[ids[0]].Rect
	for _, id := range ids[1:] {
		out = out.Union(t.items[id].Rect)
	}
	return out
}

// buildKD is the no-priority-leaf variant: a pure kd-tree whose leaves
// hold at most B items.
func (t *Tree) buildKD(ids []int32, axis int, roundToB bool) *Node {
	n := &Node{Axis: axis & 3}
	if len(ids) <= t.B {
		n.Items, n.Bounds = ids, t.mbr(ids)
		return n
	}
	half := len(ids) / 2
	if roundToB {
		if r := (half / t.B) * t.B; r > 0 {
			half = r
		}
	}
	n.SplitValue = t.splitAt(ids, half, n.Axis)
	n.Left = t.buildKD(ids[:half:half], axis+1, roundToB)
	n.Right = t.buildKD(ids[half:], axis+1, roundToB)
	n.Bounds = n.Left.Bounds.Union(n.Right.Bounds)
	return n
}

// splitAt selects the kd division of ids at half on axis — the half
// records least on it to the front — and returns the split value, the
// least coordinate on the axis behind the division: the coordinate of
// ids[half], which the selection leaves as the rank-half record.
func (t *Tree) splitAt(ids []int32, half, axis int) float64 {
	selectK(t.items, ids, half, axisOrder(axis))
	return t.items[ids[half]].Rect.Coord(axis)
}

// build is the recursive construction over the members ids names. workers
// is the number of goroutines this subtree may keep busy, the caller's
// included, and s is the calling goroutine's peel scratch (nil until a
// window reaches fusedMin). Bounds are taken bottom-up, from the priority
// leaves and the children, so no pass over a window is spent on them.
func (t *Tree) build(ids []int32, axis int, roundToB bool, workers int, s *peelScratch) *Node {
	b := t.B
	n := &Node{Axis: axis & 3}
	if len(ids) <= b {
		n.Items, n.Bounds = ids, t.mbr(ids)
		return n
	}

	if len(ids) <= 4*b {
		// Too few rectangles to fill four priority leaves and recurse:
		// split evenly into <= 4 priority leaves of >= len/4 >= B/4 each
		// (footnote 2 + the "slightly smaller priority leaves" refinement),
		// leaving no remainder.
		n.Bounds = t.mbr(ids)
		rest := ids
		groups := (len(ids) + b - 1) / b
		for dir := 0; dir < groups; dir++ {
			take := len(rest) / (groups - dir)
			if dir == groups-1 {
				take = len(rest)
			}
			selectK(t.items, rest, take, ExtremeOrder(dir))
			n.Priority[dir] = rest[:take:take]
			rest = rest[take:]
		}
		return n
	}

	if len(ids) >= fusedMin && s == nil {
		s = newPeelScratch(b)
	}
	t.peel(ids, s)
	for dir := range n.Priority {
		n.Priority[dir] = ids[dir*b : (dir+1)*b : (dir+1)*b]
	}
	n.Bounds = t.mbr(ids[:4*b])
	rest := ids[4*b:]

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
		n.Left = t.build(rest, axis+1, roundToB, workers, s)
		n.SplitValue = t.items[rest[0]].Rect.Coord(n.Axis)
		n.Bounds = n.Bounds.Union(n.Left.Bounds)
		return n
	}
	n.SplitValue = t.splitAt(rest, half, n.Axis)
	left, right := rest[:half:half], rest[half:]
	if workers < 2 || len(rest) < forkItems {
		n.Left = t.build(left, axis+1, roundToB, workers, s)
		n.Right = t.build(right, axis+1, roundToB, workers, s)
	} else {
		// The halves are near-equal, so the budget splits evenly between
		// them, and the right one, on a goroutine of its own, takes scratch
		// of its own. Run re-raises a child's panic here once both have
		// stopped.
		parallel.Run(2, 2, func(i int) {
			if i == 0 {
				n.Left = t.build(left, axis+1, roundToB, workers/2, s)
			} else {
				n.Right = t.build(right, axis+1, roundToB, workers-workers/2, nil)
			}
		})
	}
	n.Bounds = n.Bounds.Union(n.Left.Bounds).Union(n.Right.Bounds)
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

// eachGroup calls fn with every leaf group's members in depth-first order
// (priority leaves of a node before its children), which keeps spatially
// coherent groups adjacent for the level above.
func (t *Tree) eachGroup(fn func(ids []int32, priority bool, dir int)) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			fn(n.Items, false, 0)
			return
		}
		for dir, p := range n.Priority {
			if len(p) > 0 {
				fn(p, true, dir)
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
}

// EachLeaf calls fn with every leaf group in eachGroup's order. Each
// group's items are gathered into one buffer of B items that the next call
// reuses, so fn must not keep them.
func (t *Tree) EachLeaf(fn func(LeafGroup)) {
	buf := make([]geom.Item, 0, t.B)
	t.eachGroup(func(ids []int32, priority bool, dir int) {
		buf = t.Gather(buf[:0], ids)
		fn(LeafGroup{Items: buf, Priority: priority, Dir: dir})
	})
}

// LeafIDs returns every leaf group's members in EachLeaf's order, as the
// indices into the input they are: Gather fetches their records. The
// slices alias the tree's and must not be written.
func (t *Tree) LeafIDs() [][]int32 {
	out := make([][]int32, 0, t.N/t.B+1) // about one a B records
	t.eachGroup(func(ids []int32, _ bool, _ int) { out = append(out, ids) })
	return out
}

// Leaves returns every leaf group in EachLeaf's order, each with items of
// its own.
func (t *Tree) Leaves() []LeafGroup {
	var out []LeafGroup
	t.EachLeaf(func(lg LeafGroup) {
		lg.Items = slices.Clone(lg.Items)
		out = append(out, lg)
	})
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
		return t.scanLeaf(n.Items, q, fn, st)
	}
	st.InternalVisited++
	for dir := 0; dir < 4; dir++ {
		p := n.Priority[dir]
		if len(p) == 0 {
			continue
		}
		if q.Intersects(t.mbr(p)) {
			st.LeavesVisited++
			if !t.scanLeaf(p, q, fn, st) {
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

func (t *Tree) scanLeaf(ids []int32, q geom.Rect, fn func(geom.Item) bool, st *QueryStats) bool {
	for _, id := range ids {
		if it := t.items[id]; q.Intersects(it.Rect) {
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
	n, err := t.validate(t.Root)
	if err != nil {
		return err
	}
	if n != t.N {
		return fmt.Errorf("pseudo: %d items found, tree reports %d", n, t.N)
	}
	return nil
}

func (t *Tree) validate(n *Node) (int, error) {
	b := t.B
	subtree := collect(n, nil)
	if got := t.mbr(subtree); got != n.Bounds {
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
		less := ExtremeOrder(dir).Less
		// Find the least extreme member of p.
		worst := t.items[p[0]]
		inLeaf := make(map[int32]bool, len(p))
		for _, id := range p {
			if less(worst, t.items[id]) {
				worst = t.items[id]
			}
			inLeaf[id] = true
		}
		next := remaining[:0:0]
		for _, id := range remaining {
			if !inLeaf[id] {
				next = append(next, id)
			}
		}
		remaining = next
		for _, id := range remaining {
			if less(t.items[id], worst) {
				return 0, fmt.Errorf("pseudo: %s priority leaf misses more-extreme item %d", PriorityDirs[dir], t.items[id].ID)
			}
		}
	}
	// kd split invariant: all subtree items of the left child order at or
	// below the split coordinate, right child at or above (items equal to
	// the split value may sit on either side thanks to the id tie-break).
	if n.Left != nil && n.Right != nil {
		for _, id := range collect(n.Left, nil) {
			if it := t.items[id]; it.Rect.Coord(n.Axis) > n.SplitValue {
				return 0, fmt.Errorf("pseudo: left child item %d violates split %g on axis %d", it.ID, n.SplitValue, n.Axis)
			}
		}
		for _, id := range collect(n.Right, nil) {
			if it := t.items[id]; it.Rect.Coord(n.Axis) < n.SplitValue {
				return 0, fmt.Errorf("pseudo: right child item %d violates split %g on axis %d", it.ID, n.SplitValue, n.Axis)
			}
		}
	}
	for _, c := range []*Node{n.Left, n.Right} {
		if c == nil {
			continue
		}
		cn, err := t.validate(c)
		if err != nil {
			return 0, err
		}
		count += cn
	}
	return count, nil
}

// collect appends the members of the subtree below n to out.
func collect(n *Node, out []int32) []int32 {
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
	return t.Gather(nil, collect(t.Root, nil))
}
