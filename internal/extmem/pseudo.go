package extmem

import (
	"math"
	"sort"

	"prtree/internal/bulk"
	"prtree/internal/geom"
	"prtree/internal/pseudo"
	"prtree/internal/storage"
)

// BuildPseudo partitions the rectangles of in into the leaf groups of a
// pseudo-PR-tree with leaf capacity b, at a memory budget of m records,
// using the external grid algorithm of Section 2.1: four sorted lists, a
// z^4 in-memory grid with z = Theta(M^(1/4)) to build Theta(log M) kd
// levels per round, priority-leaf filling by filtering, and distribution
// to the recursive subproblems of what each will read: all four sorted
// lists to a subproblem that needs another external round, the xmin list
// alone to one that fits in memory (the in-memory construction sorts
// nothing). The four lists come from one scan of the input. Every pass
// streams through an ItemFile so the O((N/B) log_{M/B}(N/B)) I/O cost is
// measured on the store. The sorted lists and the recursion's partitions
// go on the store the input lives on; the in-memory subproblems are
// pseudo.Build's, serial.
//
// The kd divisions follow the paper's external variant: priority
// rectangles are not removed before the division is computed (the query
// bound of Lemma 2 is unaffected; each child still receives at most half
// of its parent's points). The input file is consumed and freed. emit must
// not keep a group's items past the call: the in-memory builds gather each
// group into one reused buffer.
func BuildPseudo(in *ItemFile, b, m int, emit func(pseudo.LeafGroup)) {
	disk := in.Backend()
	if b < 1 {
		panic("extmem: external build with B < 1")
	}
	perBlock := storage.ItemsPerBlock(disk.BlockSize())
	if m < 4*perBlock {
		panic("extmem: external build with M below four blocks")
	}
	if in.Len() <= m {
		items := in.ReadAll()
		in.Free()
		emitInMemory(items, b, emit)
		return
	}
	lists := sortAxes(in, m)
	in.Free()
	e := &externalBuilder{disk: disk, b: b, m: m, emit: emit}
	e.recurse(lists, 0)
}

// sortAxes produces the four corner-transform orderings of in from one
// scan of it.
func sortAxes(in *ItemFile, m int) [4]*ItemFile {
	return [4]*ItemFile(SortKeys(in, bulk.AxisKeys(), m))
}

// freeLists frees the lists of a subproblem; one that fits in memory was
// handed list 0 only.
func freeLists(lists [4]*ItemFile) {
	for _, f := range lists {
		if f != nil {
			f.Free()
		}
	}
}

func emitInMemory(items []geom.Item, b int, emit func(pseudo.LeafGroup)) {
	pseudo.Build(items, b, true, 1).EachLeaf(emit)
}

// key2 is a point in one dimension of the strict total order
// (coordinate, id) used for all divisions.
type key2 struct {
	v   float64
	tie uint32
}

func (k key2) less(o key2) bool {
	if k.v != o.v {
		return k.v < o.v
	}
	return k.tie < o.tie
}

func negInfKey() key2 { return key2{v: math.Inf(-1)} }
func posInfKey() key2 { return key2{v: math.Inf(1), tie: ^uint32(0)} }

func itemKey(it geom.Item, axis int) key2 {
	return key2{v: it.Rect.Coord(axis), tie: it.ID}
}

// slab is a half-open interval [lo, next.lo) of one dimension's total
// order, together with the record range it occupies in that dimension's
// sorted list.
type slab struct {
	id         int32
	lo         key2
	start, end int
}

// region is a 4-dimensional box in total-order space; bounds always
// coincide with slab boundaries.
type region struct {
	lo, hi [4]key2 // half-open: lo <= key < hi
}

func (r region) contains(it geom.Item) bool {
	for d := 0; d < 4; d++ {
		k := itemKey(it, d)
		if k.less(r.lo[d]) || !k.less(r.hi[d]) {
			return false
		}
	}
	return true
}

// cellKey identifies a grid cell by its four slab ids.
type cellKey [4]int32

// extNode is one internal node of the in-memory kd-subtree built per round.
type extNode struct {
	axis        int
	key         key2 // items with (coord, id) < key go left
	left, right int  // >= 0: node index; < 0: leaf region ~(idx)
	pq          [4]*prioHeap
}

type externalBuilder struct {
	disk storage.Backend
	b, m int // leaf capacity, memory budget in records
	emit func(pseudo.LeafGroup)

	// displaced counts, over all rounds, the records a priority heap
	// evicted after having admitted them: the work the fill order decides.
	displaced int

	// Per-round state.
	slabs        [4][]slab
	nextID       int32
	counts       map[cellKey]int
	lists        [4]*ItemFile
	nodes        []extNode
	regions      []region
	regionCounts []int // records of each region, priority leaves included
	axis0        int
}

// recurse builds the subproblem whose records are in lists — all four
// orderings, or list 0 alone when the caller knew it fits in memory — and
// frees them.
func (e *externalBuilder) recurse(lists [4]*ItemFile, axis int) {
	n := lists[0].Len()
	if n == 0 {
		freeLists(lists)
		return
	}
	if n <= e.m {
		items := lists[0].ReadAll()
		freeLists(lists)
		emitInMemory(items, e.b, e.emit)
		return
	}

	e.lists = lists
	e.axis0 = axis
	e.buildGrid(n)
	levels := e.kdLevels(n)
	e.nodes = e.nodes[:0]
	e.regions = e.regions[:0]
	e.regionCounts = e.regionCounts[:0]
	root := e.buildSubtree(fullRegion(), n, 0, levels)

	if root < 0 {
		// Could not split at all (pathological duplicates): fall back to
		// in-memory construction despite the memory budget.
		items := lists[0].ReadAll()
		freeLists(lists)
		emitInMemory(items, e.b, e.emit)
		return
	}

	e.fillPriorityLeaves(root)
	placed := e.placedIDs()
	outLists := e.distribute(placed)
	freeLists(lists)
	// Emit priority leaves and recurse into leaf regions in DFS order so
	// that spatially close groups stay adjacent for the level above.
	e.finish(root, outLists, axis, levels)
}

// kdLevels picks how many kd levels to build this round: log2(z) with
// z = Theta(M^(1/4)), clamped to keep at least one level.
func (e *externalBuilder) kdLevels(n int) int {
	z := int(math.Floor(math.Pow(float64(e.m), 0.25)))
	if z < 2 {
		z = 2
	}
	if z > 64 {
		z = 64
	}
	levels := 0
	for 1<<(levels+1) <= z {
		levels++
	}
	if levels < 1 {
		levels = 1
	}
	return levels
}

func fullRegion() region {
	var r region
	for d := 0; d < 4; d++ {
		r.lo[d] = negInfKey()
		r.hi[d] = posInfKey()
	}
	return r
}

// buildGrid reads the z-quantiles of each sorted list, initializes the
// slab structures, and counts every item into its grid cell with one scan.
func (e *externalBuilder) buildGrid(n int) {
	z := int(math.Floor(math.Pow(float64(e.m), 0.25)))
	if z < 2 {
		z = 2
	}
	if z > 64 {
		z = 64
	}
	if z > n {
		z = n
	}
	e.nextID = 0
	for d := 0; d < 4; d++ {
		e.slabs[d] = e.slabs[d][:0]
		prev := negInfKey()
		start := 0
		for k := 1; k <= z; k++ {
			end := k * n / z
			if k == z {
				end = n
			}
			if end <= start {
				continue
			}
			e.slabs[d] = append(e.slabs[d], slab{id: e.nextID, lo: prev, start: start, end: end})
			e.nextID++
			if k < z {
				r := e.lists[d].ReaderAt(end)
				it, ok := r.Next()
				if !ok {
					break
				}
				prev = itemKey(it, d)
				start = end
			}
		}
	}
	e.counts = make(map[cellKey]int, 1<<12)
	r := e.lists[0].Reader()
	for {
		it, ok := r.Next()
		if !ok {
			break
		}
		e.counts[e.cellOf(it)]++
	}
}

// slabIndex returns the index of the slab of dimension d containing key k.
func (e *externalBuilder) slabIndex(d int, k key2) int {
	s := e.slabs[d]
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if !k.less(s[mid].lo) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func (e *externalBuilder) cellOf(it geom.Item) cellKey {
	var c cellKey
	for d := 0; d < 4; d++ {
		c[d] = e.slabs[d][e.slabIndex(d, itemKey(it, d))].id
	}
	return c
}

// buildSubtree recursively splits region (holding total items) on the
// round-robin axis until depth levels are built or the region fits in
// memory. It returns a node index (>= 0) or ~regionIndex (< 0).
func (e *externalBuilder) buildSubtree(r region, total, depth, levels int) int {
	if depth >= levels || total <= e.m/2 {
		return e.leafRegion(r, total)
	}
	axis := (e.axis0 + depth) & 3
	key, leftCount, ok := e.split(r, axis, total)
	if !ok {
		return e.leafRegion(r, total)
	}
	leftR, rightR := r, r
	leftR.hi[axis] = key
	rightR.lo[axis] = key
	idx := len(e.nodes)
	e.nodes = append(e.nodes, extNode{axis: axis, key: key})
	for dir := 0; dir < 4; dir++ {
		e.nodes[idx].pq[dir] = newPrioHeap(dir, e.b)
	}
	l := e.buildSubtree(leftR, leftCount, depth+1, levels)
	rgt := e.buildSubtree(rightR, total-leftCount, depth+1, levels)
	e.nodes[idx].left = l
	e.nodes[idx].right = rgt
	return idx
}

func (e *externalBuilder) leafRegion(r region, total int) int {
	e.regions = append(e.regions, r)
	e.regionCounts = append(e.regionCounts, total)
	return ^(len(e.regions) - 1)
}

// split finds the exact weighted median of region r along axis using the
// grid counts plus one scan of the median slab from the sorted list, then
// refines the grid at the split key. It returns the split key and the
// exact number of region items strictly below it.
func (e *externalBuilder) split(r region, axis, total int) (key2, int, bool) {
	if total < 2 {
		return key2{}, 0, false
	}
	target := total / 2
	if target == 0 {
		target = 1
	}

	// Identify the in-region slab id sets of every dimension; region bounds
	// always coincide with slab boundaries, so a slab is in the region
	// exactly when its lower bound lies in [lo, hi).
	var inRegion [4]map[int32]bool
	for d := 0; d < 4; d++ {
		inRegion[d] = make(map[int32]bool)
		for _, s := range e.slabs[d] {
			if !s.lo.less(r.lo[d]) && s.lo.less(r.hi[d]) {
				inRegion[d][s.id] = true
			}
		}
	}
	// Per-slab region counts along axis.
	slabCount := make(map[int32]int)
	for c, cnt := range e.counts {
		in := true
		for d := 0; d < 4; d++ {
			if !inRegion[d][c[d]] {
				in = false
				break
			}
		}
		if in {
			slabCount[c[axis]] += cnt
		}
	}
	// Walk the axis slabs in order to find the slab holding the target.
	cum := 0
	var median slab
	medianIdx := -1
	for i, s := range e.slabs[axis] {
		if !inRegion[axis][s.id] {
			continue
		}
		cnt := slabCount[s.id]
		if cum+cnt >= target && cnt > 0 {
			median = s
			medianIdx = i
			break
		}
		cum += cnt
	}
	if medianIdx < 0 {
		return key2{}, 0, false
	}

	// Scan the median slab's record range from the axis-sorted list; the
	// slab's records are contiguous there (cost O(slabSize/B) block reads).
	all := make([]geom.Item, 0, median.end-median.start)
	rd := e.lists[axis].ReaderAt(median.start)
	for i := median.start; i < median.end; i++ {
		it, ok := rd.Next()
		if !ok {
			break
		}
		all = append(all, it)
	}
	// Rank the region members of the slab; records are already sorted by
	// (coord, id) on axis.
	rank := target - cum // number of the slab's region items going left
	var split key2
	seen := 0
	idxInAll := -1
	for i, it := range all {
		if r.contains(it) {
			seen++
			if seen == rank+1 {
				split = itemKey(it, axis)
				idxInAll = i
				break
			}
		}
	}
	if idxInAll < 0 {
		// Every region item of the median slab goes left: split exactly at
		// the slab's upper boundary (the next slab's lower bound), which
		// requires no grid refinement. If the median slab is the last one
		// in the region, the right side would be empty and no split exists.
		if medianIdx+1 >= len(e.slabs[axis]) {
			return key2{}, 0, false
		}
		next := e.slabs[axis][medianIdx+1].lo
		if !next.less(r.hi[axis]) {
			return key2{}, 0, false
		}
		return next, cum + seen, true
	}
	leftCount := cum + rank

	// Refine the grid: divide the median slab at the split key and
	// recount the affected cells exactly from the scan.
	k := sort.Search(len(all), func(i int) bool {
		return !itemKey(all[i], axis).less(split)
	})
	newID := e.nextID
	e.nextID++
	si := e.slabIndexByID(axis, median.id)
	right := slab{id: newID, lo: split, start: median.start + k, end: median.end}
	e.slabs[axis][si].end = median.start + k
	e.slabs[axis] = append(e.slabs[axis], slab{})
	copy(e.slabs[axis][si+2:], e.slabs[axis][si+1:])
	e.slabs[axis][si+1] = right
	// Purge counts involving the median slab and re-add from the scan.
	for c := range e.counts {
		if c[axis] == median.id {
			delete(e.counts, c)
		}
	}
	for _, it := range all {
		e.counts[e.cellOf(it)]++
	}
	return split, leftCount, true
}

func (e *externalBuilder) slabIndexByID(d int, id int32) int {
	for i, s := range e.slabs[d] {
		if s.id == id {
			return i
		}
	}
	panic("extmem: slab id not found")
}

// fillPriorityLeaves passes every item through the kd-subtree, maintaining
// the B most extreme rectangles per direction per node with bounded heaps;
// displaced rectangles continue filtering exactly as in the paper.
//
// The outcome does not depend on the order the items arrive in: a heap ends
// with the B most extreme of the items that reach it, everything else that
// reached it moves on, and so — by induction over a node's four directions
// and then over the levels — which items reach a heap is fixed too. The
// cost does depend on it. A sorted list is the worst order there is for a
// heap of the opposite direction — each record beats all before it, is
// admitted, and is evicted B records later — and where rectangles are small
// xmax rises with xmin, so list 0 read in order is that list for the xmax
// heap of every node. So the blocks of list 0 are visited with a stride
// near blocks/phi, the most evenly scattered order a fixed stride gives:
// after any prefix the visited blocks are spread over the whole list, and a
// heap soon holds a sample few later blocks can beat. One counted read per
// block, as in a scan.
func (e *externalBuilder) fillPriorityLeaves(root int) {
	perBlock := storage.ItemsPerBlock(e.disk.BlockSize())
	blocks := e.lists[0].Blocks()
	stride := scatterStride(blocks)
	r := e.lists[0].Reader()
	for i, b := 0, 0; i < blocks; i, b = i+1, (b+stride)%blocks {
		r.Seek(b * perBlock)
		for j := 0; j < perBlock; j++ {
			it, ok := r.Next()
			if !ok {
				break // the last block may be partial
			}
			e.filter(root, it)
		}
	}
}

// scatterStride returns the first stride coprime to n from n/phi up: taking
// blocks 0, s, 2s, ... mod n visits each of the n exactly once.
func scatterStride(n int) int {
	s := max(1, int(float64(n)/math.Phi))
	for gcd(s, n) != 1 {
		s++ // ends at n-1 at the latest
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// filter sends one item down from the node: it stays in the first heap on
// its way that has room, and wherever it is more extreme than a full
// heap's least extreme member it takes that member's place and the member
// travels on.
func (e *externalBuilder) filter(node int, cur geom.Item) {
	for node >= 0 {
		n := &e.nodes[node]
		for dir := 0; dir < 4; dir++ {
			pq := n.pq[dir]
			if len(pq.items) < pq.cap {
				pq.push(cur)
				return
			}
			if pq.ord.Less(cur, pq.items[0]) {
				cur = pq.replaceTop(cur)
				e.displaced++
			}
		}
		if itemKey(cur, n.axis).less(n.key) {
			node = n.left
		} else {
			node = n.right
		}
	}
}

func (e *externalBuilder) placedIDs() map[uint32]bool {
	placed := make(map[uint32]bool)
	for i := range e.nodes {
		for dir := 0; dir < 4; dir++ {
			for _, it := range e.nodes[i].pq[dir].items {
				placed[it.ID] = true
			}
		}
	}
	return placed
}

// distribute routes every unplaced item to its leaf region, once per list
// the region will read (order is preserved, so the child lists remain
// sorted). A region of at most M records is built in memory from list 0 and
// gets no other; lists 1-3 go to the regions that need another external
// round, and are not even scanned when the round has none.
func (e *externalBuilder) distribute(placed map[uint32]bool) [][4]*ItemFile {
	out := make([][4]*ItemFile, len(e.regions))
	for d := 0; d < 4; d++ {
		wanted := false
		for i := range out {
			if d == 0 || e.regionCounts[i] > e.m {
				out[i][d] = NewItemFile(e.disk)
				wanted = true
			}
		}
		if !wanted {
			continue
		}
		rd := e.lists[d].Reader()
		for {
			it, ok := rd.Next()
			if !ok {
				break
			}
			if placed[it.ID] {
				continue
			}
			if f := out[e.routeToRegion(it)][d]; f != nil {
				f.Append(it)
			}
		}
		for i := range out {
			if out[i][d] != nil {
				out[i][d].Seal()
			}
		}
	}
	return out
}

func (e *externalBuilder) routeToRegion(it geom.Item) int {
	node := 0
	for node >= 0 {
		n := &e.nodes[node]
		if itemKey(it, n.axis).less(n.key) {
			node = n.left
		} else {
			node = n.right
		}
	}
	return ^node
}

// finish emits the round's priority leaves and recurses into leaf regions
// in depth-first order. The builder's per-round state is copied out first
// because recursion reuses it.
func (e *externalBuilder) finish(root int, outLists [][4]*ItemFile, axis, levels int) {
	nodes := make([]extNode, len(e.nodes))
	copy(nodes, e.nodes)
	regionDepth := make([]int, len(e.regions))
	var markDepth func(idx, depth int)
	markDepth = func(idx, depth int) {
		if idx < 0 {
			regionDepth[^idx] = depth
			return
		}
		markDepth(nodes[idx].left, depth+1)
		markDepth(nodes[idx].right, depth+1)
	}
	markDepth(root, 0)

	var dfs func(idx int)
	dfs = func(idx int) {
		if idx < 0 {
			ri := ^idx
			e.recurse(outLists[ri], axis+regionDepth[ri])
			return
		}
		n := nodes[idx]
		for dir := 0; dir < 4; dir++ {
			if items := n.pq[dir].items; len(items) > 0 {
				e.emit(pseudo.LeafGroup{Items: items, Priority: true, Dir: dir})
			}
		}
		dfs(n.left)
		dfs(n.right)
	}
	dfs(root)
}

// prioHeap keeps the capacity-B most extreme items in one direction as a
// binary heap whose top is the least extreme member (the eviction
// candidate).
type prioHeap struct {
	items []geom.Item
	cap   int
	ord   pseudo.Order // ord.Less(a, b): a is strictly more extreme than b
}

func newPrioHeap(dir, capacity int) *prioHeap {
	return &prioHeap{cap: capacity, ord: pseudo.ExtremeOrder(dir)}
}

// push adds it and sifts it up.
func (h *prioHeap) push(it geom.Item) {
	h.items = append(h.items, it)
	for j := len(h.items) - 1; j > 0; {
		parent := (j - 1) / 2
		if !h.ord.Less(h.items[parent], h.items[j]) {
			break
		}
		h.items[parent], h.items[j] = h.items[j], h.items[parent]
		j = parent
	}
}

// replaceTop swaps it for the least extreme member, restores the heap and
// returns the evicted item.
func (h *prioHeap) replaceTop(it geom.Item) geom.Item {
	it, h.items[0] = h.items[0], it
	for i, n := 0, len(h.items); ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.ord.Less(h.items[j], h.items[r]) {
			j = r // the less extreme child
		}
		if !h.ord.Less(h.items[i], h.items[j]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
	return it
}
