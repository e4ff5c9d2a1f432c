package prtree

import (
	"context"
	"fmt"
	"iter"

	"prtree/internal/geom"
	"prtree/internal/rtree"
)

// Query is one composable spatial query: a kind (window, point stabbing,
// containment or k-nearest-neighbor) plus per-query options. Build one
// with Window, Point, Contained or Nearest, refine it with the With*
// methods (each returns a derived value; a Query is immutable and
// reusable), and consume it with Tree.Run, Tree.Iter or Tree.Collect:
//
//	q := prtree.Window(rect).WithLimit(100).WithContext(ctx)
//	for it := range tree.Iter(q) {
//		...
//	}
//
// Every kind runs on the same worst-case-optimal executor with identical
// block-I/O accounting; the options only bound or observe the traversal.
type Query struct {
	kind  queryKind
	rect  Rect
	x, y  float64
	k     int
	limit int
	ctx   context.Context
	stats *QueryStats
}

type queryKind uint8

const (
	queryWindow queryKind = iota
	queryContained
	queryNearest
)

// Window queries every item intersecting q (the paper's window query).
func Window(q Rect) Query { return Query{kind: queryWindow, rect: q} }

// Point queries every item containing the point (x, y) — a degenerate
// window, with the same optimal bound.
func Point(x, y float64) Query { return Query{kind: queryWindow, rect: geom.PointRect(x, y)} }

// Contained queries every item fully contained in q. Traversal prunes on
// intersection and filters on containment at the leaves.
func Contained(q Rect) Query { return Query{kind: queryContained, rect: q} }

// Nearest queries the k items closest to (x, y), yielded in ascending
// distance order with deterministic (distance, ID) tie-breaking.
func Nearest(x, y float64, k int) Query { return Query{kind: queryNearest, x: x, y: y, k: k} }

// WithLimit bounds the query to at most n results; n <= 0 removes the
// bound. The traversal stops — successfully — as soon as the limit is hit.
func (q Query) WithLimit(n int) Query {
	if n < 0 {
		n = 0
	}
	q.limit = n
	return q
}

// WithContext attaches a cancellation context. The executor polls it at
// node-visit granularity: once ctx is done, the traversal stops within one
// node visit and the context's error is returned by Run and Collect (Iter
// simply stops yielding).
func (q Query) WithContext(ctx context.Context) Query {
	q.ctx = ctx
	return q
}

// WithStats directs the executor to write the query's node-visit
// statistics into st when the query finishes (including early stops from
// limits, callbacks and cancellation).
func (q Query) WithStats(st *QueryStats) Query {
	q.stats = st
	return q
}

// cancelPoll adapts a context to the executor's per-node poll. A nil or
// never-canceled context costs queries nothing.
func cancelPoll(ctx context.Context) func() error {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() error {
		select {
		case <-done:
			return ctx.Err()
		default:
			return nil
		}
	}
}

// Run executes q, reporting each matching item to fn (return false to stop
// early; fn may be nil to count only). Window and containment results come
// in unspecified order; Nearest results in ascending distance order. The
// only error source is query cancellation: a non-nil error is the
// context's (context.Canceled or context.DeadlineExceeded), wrapped
// statistics land in the WithStats sink regardless.
//
// fn must not mutate the tree, and Run is safe for any number of
// concurrent callers (the read path shares no traversal state).
func (t *Tree) Run(q Query, fn func(Item) bool) error {
	opt := rtree.RunOptions{Limit: q.limit, Cancel: cancelPoll(q.ctx)}
	var st QueryStats
	var err error
	switch q.kind {
	case queryNearest:
		var out []rtree.Neighbor
		out, st, err = t.inner.RunNearest(q.x, q.y, q.k, opt)
		if err == nil && fn != nil {
			for _, nb := range out {
				if !fn(nb.Item) {
					break
				}
			}
		}
	case queryContained:
		st, err = t.inner.RunWindow(q.rect, true, fn, opt)
	default:
		st, err = t.inner.RunWindow(q.rect, false, fn, opt)
	}
	if q.stats != nil {
		*q.stats = st
	}
	return err
}

// Iter returns a pull iterator over q's results, for use with Go 1.23
// range-over-func:
//
//	for it := range tree.Iter(q) {
//		...
//	}
//
// Breaking out of the loop stops the underlying traversal immediately for
// window, point and containment queries; a Nearest query materializes its
// k results before the first yield (best-first search must see every
// boundary candidate), so bound its work with a smaller k or WithLimit
// rather than an early break.
// Cancellation (WithContext) ends iteration early without a signal — use
// Run when the caller must distinguish "done" from "canceled", or attach a
// WithStats sink and inspect it after the loop.
func (t *Tree) Iter(q Query) iter.Seq[Item] {
	return func(yield func(Item) bool) {
		_ = t.Run(q, yield)
	}
}

// Collect executes q and returns all results as a slice.
func (t *Tree) Collect(q Query) ([]Item, error) {
	var out []Item
	err := t.Run(q, func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out, err
}

// Count executes q discarding results and returns the result count. A
// WithStats sink on q is honored, not replaced.
func (t *Tree) Count(q Query) (int, error) {
	var st QueryStats
	if q.stats == nil {
		q.stats = &st
	}
	err := t.Run(q, nil)
	return q.stats.Results, err
}

// CollectNearest executes a Nearest query and returns the neighbors with
// their squared distances, in ascending (distance, ID) order. It is the
// distance-carrying sibling of Collect — scatter-gather servers merge
// per-shard k-NN results by (Dist2, ID), which Item alone cannot support —
// and honors WithContext, WithLimit and WithStats like every other
// consumer. Non-Nearest queries are rejected.
func (t *Tree) CollectNearest(q Query) ([]Neighbor, error) {
	if q.kind != queryNearest {
		return nil, fmt.Errorf("prtree: CollectNearest requires a Nearest query")
	}
	out, st, err := t.inner.RunNearest(q.x, q.y, q.k, rtree.RunOptions{
		Limit:  q.limit,
		Cancel: cancelPoll(q.ctx),
	})
	if q.stats != nil {
		*q.stats = st
	}
	return out, err
}

// Neighbor is one nearest-neighbor result with its squared distance.
type Neighbor = rtree.Neighbor
