package prtree

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"sync"

	"prtree/internal/geom"
	"prtree/internal/logmethod"
	"prtree/internal/rtree"
)

// Query is one composable spatial query: a kind (window, point stabbing,
// containment or k-nearest-neighbor) plus per-query options. Build one
// with Window, Point, Contained or Nearest, refine it with the With*
// methods (each returns a derived value; a Query is immutable and
// reusable), and consume it with Run, Iter, Collect, Count or
// CollectNearest on a Tree or a Dynamic:
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

// searcher is the executor contract both index kinds implement: exactly
// one of its fields is set. A *logmethod.Tree answers from its buffer and
// levels less its tombstones, and its limit counts live results only. The
// executors are called by their concrete types, never through an
// interface, so a caller's callback, and what it captures, stays off the
// heap.
type searcher struct {
	static  *rtree.Tree
	dynamic *logmethod.Tree
}

func (t *Tree) exec() searcher    { return searcher{static: t.inner} }
func (d *Dynamic) exec() searcher { return searcher{dynamic: d.inner} }

// run executes q on s — the one place a query's kind picks the traversal —
// reports each result to fn (nil to count only) and fills q's WithStats
// sink. A Nearest query's neighbors wait in pooled scratch until they are
// yielded, so it allocates no answer unless keep is non-nil: then *keep is
// set to a copy of them, the caller's own. A NaN or infinite coordinate
// fails the query before it starts: a NaN compares false with everything
// and every distance to an infinity ties, so a traversal would answer with
// arbitrary items.
func run(s searcher, q Query, fn func(Item) bool, keep *[]Neighbor) (st QueryStats, err error) {
	opt := rtree.RunOptions{Limit: q.limit, Cancel: cancelPoll(q.ctx)}
	switch {
	case !finite(q.rect.MinX, q.rect.MinY, q.rect.MaxX, q.rect.MaxY, q.x, q.y):
		err = errNonFinite
	case q.kind == queryNearest:
		p := neighbors.Get().(*[]Neighbor)
		nb := (*p)[:0]
		if s.dynamic != nil {
			nb, st, err = s.dynamic.AppendNearest(nb, q.x, q.y, q.k, opt)
		} else {
			nb, st, err = s.static.AppendNearest(nb, q.x, q.y, q.k, opt)
		}
		if keep != nil {
			*keep = append([]Neighbor(nil), nb...)
		}
		for _, n := range nb {
			if fn == nil || !fn(n.Item) {
				break
			}
		}
		*p = nb[:0]
		neighbors.Put(p)
	case s.dynamic != nil:
		st, err = s.dynamic.RunWindow(q.rect, q.kind == queryContained, fn, opt)
	default:
		st, err = s.static.RunWindow(q.rect, q.kind == queryContained, fn, opt)
	}
	if q.stats != nil {
		*q.stats = st
	}
	return st, err
}

// neighbors pools the neighbors of Nearest queries.
var neighbors = sync.Pool{New: func() any { return new([]Neighbor) }}

var errNonFinite = errors.New("prtree: query coordinate is NaN or infinite")

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func runItems(s searcher, q Query, fn func(Item) bool) error {
	_, err := run(s, q, fn, nil)
	return err
}

func iterItems(s searcher, q Query) iter.Seq[Item] {
	return func(yield func(Item) bool) {
		_ = runItems(s, q, yield)
	}
}

func collectItems(s searcher, q Query) ([]Item, error) {
	var out []Item
	err := runItems(s, q, func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out, err
}

func countItems(s searcher, q Query) (int, error) {
	st, err := run(s, q, nil, nil)
	return st.Results, err
}

func collectNeighbors(s searcher, q Query) (nb []Neighbor, err error) {
	if q.kind != queryNearest {
		return nil, fmt.Errorf("prtree: CollectNearest requires a Nearest query")
	}
	_, err = run(s, q, nil, &nb)
	return nb, err
}

// Run executes q, reporting each matching item to fn (return false to stop
// early; fn may be nil to count only). Window and containment results come
// in unspecified order; Nearest results in ascending distance order. A
// query with a NaN or infinite coordinate fails with an error before any
// traversal; otherwise the only error source is query cancellation: a
// non-nil error is the context's (context.Canceled or
// context.DeadlineExceeded), and statistics land in the WithStats sink
// regardless.
//
// fn must not mutate the tree, and Run is safe for any number of
// concurrent callers (the read path shares no traversal state).
func (t *Tree) Run(q Query, fn func(Item) bool) error { return runItems(t.exec(), q, fn) }

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
// Iter reports no error: a query with a NaN or infinite coordinate
// yields nothing, and cancellation (WithContext) ends iteration early
// without a signal — use Run or Collect to see either error, or attach a
// WithStats sink and inspect it after the loop.
func (t *Tree) Iter(q Query) iter.Seq[Item] { return iterItems(t.exec(), q) }

// Collect executes q and returns all results as a slice.
func (t *Tree) Collect(q Query) ([]Item, error) { return collectItems(t.exec(), q) }

// Count executes q discarding results and returns the result count. A
// WithStats sink on q is honored too.
func (t *Tree) Count(q Query) (int, error) { return countItems(t.exec(), q) }

// CollectNearest executes a Nearest query and returns the neighbors with
// their squared distances, in ascending (distance, ID) order. It is the
// distance-carrying sibling of Collect — scatter-gather servers merge
// per-shard k-NN results by (Dist2, ID), which Item alone cannot support —
// and honors WithContext, WithLimit and WithStats like every other
// consumer. Non-Nearest queries are rejected.
func (t *Tree) CollectNearest(q Query) ([]Neighbor, error) { return collectNeighbors(t.exec(), q) }

// Run is Tree.Run over the index's live items.
func (d *Dynamic) Run(q Query, fn func(Item) bool) error { return runItems(d.exec(), q, fn) }

// Iter is Tree.Iter over the index's live items.
func (d *Dynamic) Iter(q Query) iter.Seq[Item] { return iterItems(d.exec(), q) }

// Collect is Tree.Collect over the index's live items.
func (d *Dynamic) Collect(q Query) ([]Item, error) { return collectItems(d.exec(), q) }

// Count is Tree.Count over the index's live items.
func (d *Dynamic) Count(q Query) (int, error) { return countItems(d.exec(), q) }

// CollectNearest is Tree.CollectNearest over the index's live items.
func (d *Dynamic) CollectNearest(q Query) ([]Neighbor, error) { return collectNeighbors(d.exec(), q) }

// Neighbor is one nearest-neighbor result with its squared distance.
type Neighbor = rtree.Neighbor
