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

// Neighbor is one k-nearest-neighbor result with its squared distance
// from the query point to the rectangle (0 when the point is inside).
type Neighbor struct {
	Item  geom.Item
	Dist2 float64
}

// knnHeaps pools best-first search frontiers across RunNearest calls
// — per-goroutine scratch, like the traversal stacks, so concurrent k-NN
// queries never share a heap. Package-level because the heaps carry no
// per-tree state.
var knnHeaps = sync.Pool{New: func() interface{} { h := make(distHeap, 0, 64); return &h }}

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
