package rtree

import (
	"container/heap"
	"math"
	"runtime/debug"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// This file is the unified query executor behind every spatial read path:
// window, point (a degenerate window), containment and k-nearest-neighbor
// queries all run through RunWindow / RunNearest with per-query options —
// cooperative cancellation polled at node-visit granularity and a result
// limit — so the public facade can expose one composable query surface
// without duplicating traversals.

// RunOptions carries the per-query execution knobs.
type RunOptions struct {
	// Cancel, when non-nil, is polled before every node visit; a non-nil
	// return aborts the traversal immediately and becomes the query's
	// error. Statistics cover the work done up to that point.
	Cancel func() error
	// Limit, when positive, ends the query (successfully) as soon as that
	// many results have been reported.
	Limit int
}

// RunWindow reports every stored item matching q to fn, in unspecified
// order: the items intersecting q when contain is false (window and point
// stabbing queries), or the items fully contained in q when contain is
// true. fn returning false stops the query early; fn must not mutate the
// tree (the traversal reads node entries in place from the page cache).
//
// The traversal is an explicit-stack preorder walk over zero-copy views —
// children are pushed in reverse so pages are visited in exactly the order
// the recursive formulation would, keeping I/O traces identical even under
// a bounded LRU. Both predicates prune identically on descent (a contained
// entry must intersect q), so block-I/O accounting matches the paper's
// window-query measurement for every kind.
func (t *Tree) RunWindow(q geom.Rect, contain bool, fn func(geom.Item) bool, opt RunOptions) (QueryStats, error) {
	var st QueryStats
	if t.root == storage.NilPage {
		return st, nil
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // see readView
	sp := t.grabStack()
	stack := append(*sp, t.root)
	for len(stack) > 0 {
		if opt.Cancel != nil {
			if err := opt.Cancel(); err != nil {
				t.releaseStack(sp, stack)
				return st, err
			}
		}
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := t.readView(id)
		st.NodesVisited++
		if v.isLeaf() {
			st.LeavesVisited++
			for i, cnt := 0, v.count(); i < cnt; i++ {
				r := v.rectAt(i)
				if contain {
					if !q.Contains(r) {
						continue
					}
				} else if !q.Intersects(r) {
					continue
				}
				st.Results++
				if fn != nil && !fn(geom.Item{Rect: r, ID: v.refAt(i)}) {
					t.releaseStack(sp, stack)
					return st, nil
				}
				if opt.Limit > 0 && st.Results >= opt.Limit {
					t.releaseStack(sp, stack)
					return st, nil
				}
			}
			continue
		}
		st.InternalVisited++
		for i := v.count() - 1; i >= 0; i-- {
			if q.Intersects(v.rectAt(i)) {
				stack = append(stack, storage.PageID(v.refAt(i)))
			}
		}
	}
	t.releaseStack(sp, stack)
	return st, nil
}

// RunNearest returns the k stored rectangles closest to (x, y) in
// ascending distance order, using best-first search: a global priority
// queue over node bounding-box distances guarantees no node is read unless
// it could contain one of the k answers. opt.Cancel is polled before every
// node visit; opt.Limit caps the result count below k.
//
// Ties at the k-th distance are resolved deterministically by ascending
// item ID, so the result set is a pure function of the stored items — in
// particular it is identical whichever loader (and hence tree shape) the
// items were loaded with.
func (t *Tree) RunNearest(x, y float64, k int, opt RunOptions) ([]Neighbor, QueryStats, error) {
	var st QueryStats
	if opt.Limit > 0 && opt.Limit < k {
		k = opt.Limit
	}
	if k <= 0 || t.nItems == 0 {
		return nil, st, nil
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // see readView
	pq := knnHeaps.Get().(*distHeap)
	defer func() { *pq = (*pq)[:0]; knnHeaps.Put(pq) }()
	*pq = (*pq)[:0]
	heap.Push(pq, distEntry{dist2: 0, page: t.root, isNode: true})
	out := make([]Neighbor, 0, k)
	// Once k results are held, keep draining entries at exactly the k-th
	// distance so every boundary candidate surfaces; ties collects them.
	kth := math.Inf(1)
	var ties []Neighbor
	for pq.Len() > 0 {
		if len(out) == k && (*pq)[0].dist2 > kth {
			break
		}
		e := heap.Pop(pq).(distEntry)
		if !e.isNode {
			if len(out) < k {
				out = append(out, Neighbor{Item: e.item, Dist2: e.dist2})
				if len(out) == k {
					kth = out[k-1].Dist2
				}
			} else if e.dist2 == kth {
				ties = append(ties, Neighbor{Item: e.item, Dist2: e.dist2})
			}
			continue
		}
		if opt.Cancel != nil {
			if err := opt.Cancel(); err != nil {
				return nil, st, err
			}
		}
		v := t.readView(e.page)
		st.NodesVisited++
		if v.isLeaf() {
			st.LeavesVisited++
			for i, cnt := 0, v.count(); i < cnt; i++ {
				r := v.rectAt(i)
				heap.Push(pq, distEntry{
					dist2: r.Dist2(x, y),
					item:  geom.Item{Rect: r, ID: v.refAt(i)},
				})
			}
		} else {
			st.InternalVisited++
			for i, cnt := 0, v.count(); i < cnt; i++ {
				heap.Push(pq, distEntry{
					dist2:  v.rectAt(i).Dist2(x, y),
					page:   storage.PageID(v.refAt(i)),
					isNode: true,
				})
			}
		}
	}
	if len(ties) > 0 {
		// Re-select the boundary: among every item at the k-th distance,
		// keep the smallest IDs.
		i := len(out)
		for i > 0 && out[i-1].Dist2 == kth {
			i--
		}
		group := make([]Neighbor, 0, len(out)-i+len(ties))
		group = append(group, out[i:]...)
		group = append(group, ties...)
		out = append(out[:i], Closest(group, k-i)...)
	}
	// Equal-distance items can surface in tree-shape-dependent order (one
	// may hide in a not-yet-expanded equal-distance node while another
	// pops), so Closest's order — not discovery order — defines the result
	// sequence.
	out = Closest(out, k)
	st.Results = len(out)
	return out, st, nil
}
