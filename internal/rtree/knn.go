package rtree

import (
	"cmp"
	"slices"
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

// Closest sorts nb into the k-NN order of every read path — ascending
// distance, ties by ascending item ID — and cuts it to its first k, so a
// merge of several trees' answers equals one tree's over the same items.
func Closest(nb []Neighbor, k int) []Neighbor {
	slices.SortFunc(nb, func(a, b Neighbor) int {
		if c := cmp.Compare(a.Dist2, b.Dist2); c != 0 {
			return c
		}
		return cmp.Compare(a.Item.ID, b.Item.ID)
	})
	if len(nb) > k {
		nb = nb[:k]
	}
	return nb
}

// knnHeaps pools best-first search frontiers across AppendNearest calls
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

// distHeap is the best-first frontier: a binary min-heap on less, with
// typed push and pop so an entry is never boxed into an interface.
type distHeap []distEntry

func (h distHeap) less(i, j int) bool {
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

func (h *distHeap) push(e distEntry) {
	*h = append(*h, e)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *distHeap) pop() distEntry {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q
	return top
}
