package rtree

import (
	"sync"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// This file implements the other classic R-tree queries the paper alludes
// to ("many types of queries can be answered efficiently using an
// R-tree"): point stabbing, containment, and best-first k-nearest-neighbor
// search (Hjaltason & Samet's incremental algorithm), all with the same
// block-level accounting as window queries.

// PointQuery reports every stored rectangle containing the point (x, y).
func (t *Tree) PointQuery(x, y float64, fn func(geom.Item) bool) QueryStats {
	return t.Query(geom.PointRect(x, y), fn)
}

// ContainmentQuery reports every stored rectangle fully contained in q.
// Traversal prunes on intersection (a containing leaf entry must intersect
// q) and filters on containment at the leaves. Like Query, it walks
// zero-copy views with an explicit preorder stack; fn must not mutate the
// tree. It is the no-options containment form of RunWindow.
func (t *Tree) ContainmentQuery(q geom.Rect, fn func(geom.Item) bool) QueryStats {
	st, _ := t.RunWindow(q, true, fn, RunOptions{})
	return st
}

// Neighbor is one k-nearest-neighbor result with its squared distance
// from the query point to the rectangle (0 when the point is inside).
type Neighbor struct {
	Item  geom.Item
	Dist2 float64
}

// knnHeaps pools best-first search frontiers across NearestNeighbors calls
// — per-goroutine scratch, like the traversal stacks, so concurrent k-NN
// queries never share a heap. Package-level because the heaps carry no
// per-tree state.
var knnHeaps = sync.Pool{New: func() interface{} { h := make(distHeap, 0, 64); return &h }}

// NearestNeighbors returns the k stored rectangles closest to (x, y) in
// ascending distance order. It is the no-options form of RunNearest; see
// query.go for the best-first search and deterministic tie-breaking
// guarantees.
func (t *Tree) NearestNeighbors(x, y float64, k int) ([]Neighbor, QueryStats) {
	out, st, _ := t.RunNearest(x, y, k, RunOptions{})
	return out, st
}

type distEntry struct {
	dist2  float64
	page   storage.PageID
	isNode bool
	item   geom.Item
}

type distHeap []distEntry

func (h distHeap) Len() int { return len(h) }
func (h distHeap) Less(i, j int) bool {
	if h[i].dist2 != h[j].dist2 {
		return h[i].dist2 < h[j].dist2
	}
	// Pop items before nodes at equal distance so results surface eagerly;
	// among equal-distance items, pop ascending IDs so the emitted order is
	// deterministic regardless of tree shape.
	if h[i].isNode != h[j].isNode {
		return !h[i].isNode
	}
	if !h[i].isNode {
		return h[i].item.ID < h[j].item.ID
	}
	return false
}
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
