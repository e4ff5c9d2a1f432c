package zoo

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"prtree/internal/geom"
)

// Kind is a query class. A point query is a Window whose rectangle is a
// point; a limited query is a Window or Contained query with Limit > 0.
type Kind uint8

const (
	Window    Kind = iota // every item intersecting Rect
	Contained             // every item inside Rect
	Nearest               // the K items closest to (X, Y)
)

// Query is one query of the zoo's classes.
type Query struct {
	Kind  Kind
	Rect  geom.Rect
	X, Y  float64
	K     int
	Limit int // > 0 bounds a Window or Contained query
}

func (q Query) String() string {
	switch q.Kind {
	case Nearest:
		return fmt.Sprintf("nearest(%v, %v, k=%d)", q.X, q.Y, q.K)
	case Contained:
		return fmt.Sprintf("contained(%v, limit=%d)", q.Rect, q.Limit)
	}
	return fmt.Sprintf("window(%v, limit=%d)", q.Rect, q.Limit)
}

// Queries returns a mix of every class over the items' bounding box:
// count windows (half of them with a corner on an item's corner, so
// boundary ties are common), count/2 points (half of them item corners),
// count/2 containment windows, count/2 nearest-neighbor queries (one with
// K = 150, more than a 4 KB page holds) and count/4 limited windows. Every coordinate lies
// inside the bounding box, so no query overflows on huge inputs.
func Queries(items []geom.Item, count int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	w := geom.ItemsMBR(items)
	at := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	corner := func() (float64, float64) {
		r := items[rng.Intn(len(items))].Rect
		if rng.Intn(2) == 0 {
			return r.MinX, r.MinY
		}
		return r.MaxX, r.MaxY
	}
	rect := func(frac float64, anchored bool) geom.Rect {
		x, y := at(w.MinX, w.MaxX), at(w.MinY, w.MaxY)
		if anchored {
			x, y = corner()
		}
		return geom.NewRect(x, y, x+frac*rng.Float64()*(w.MaxX-x), y+frac*rng.Float64()*(w.MaxY-y))
	}
	var qs []Query
	for i := 0; i < count; i++ {
		qs = append(qs, Query{Kind: Window, Rect: rect(0.2, i%2 == 0)})
	}
	for i := 0; i < count/2; i++ {
		x, y := at(w.MinX, w.MaxX), at(w.MinY, w.MaxY)
		if i%2 == 0 {
			x, y = corner()
		}
		qs = append(qs,
			Query{Kind: Window, Rect: geom.PointRect(x, y)},
			Query{Kind: Contained, Rect: rect(0.5, i%2 == 0)},
			Query{Kind: Nearest, X: at(w.MinX, w.MaxX), Y: at(w.MinY, w.MaxY), K: 1 + rng.Intn(20)})
	}
	qs[len(qs)-1].K = 150
	for i := 0; i < count/4; i++ {
		qs = append(qs, Query{Kind: Kind(i % 2), Rect: rect(0.8, false), Limit: 1 + rng.Intn(5)})
	}
	return qs
}

// Windows returns n windows whose corners are uniform in the unit square.
func Windows(n int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]geom.Rect, n)
	for i := range qs {
		qs[i] = geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
	}
	return qs
}

// Less is the canonical item order: by ID, then by rectangle. It is the
// order a served Set merges its shards' results in.
func Less(a, b geom.Item) int {
	return cmp.Or(cmp.Compare(a.ID, b.ID),
		cmp.Compare(a.Rect.MinX, b.Rect.MinX), cmp.Compare(a.Rect.MinY, b.Rect.MinY),
		cmp.Compare(a.Rect.MaxX, b.Rect.MaxX), cmp.Compare(a.Rect.MaxY, b.Rect.MaxY))
}

// Sorted returns a copy of items in the canonical order.
func Sorted(items []geom.Item) []geom.Item {
	out := slices.Clone(items)
	slices.SortFunc(out, Less)
	return out
}

// Want is the brute-force answer to one query, computed once and checked
// against any number of structures.
type Want struct {
	q Query
	// set is the answer in canonical order: for Window and Contained every
	// matching item, for Nearest every item no farther than the K-th.
	set []geom.Item
	// top is Nearest's ranked answer: the K nearest items by (distance², Less).
	top []geom.Item
}

// Expect answers q by scanning items.
func Expect(items []geom.Item, q Query) *Want {
	w := &Want{q: q}
	if q.Kind != Nearest {
		for _, it := range items {
			if q.Rect.Intersects(it.Rect) && (q.Kind == Window || q.Rect.Contains(it.Rect)) {
				w.set = append(w.set, it)
			}
		}
		slices.SortFunc(w.set, Less)
		return w
	}
	d := func(it geom.Item) float64 { return it.Rect.Dist2(q.X, q.Y) }
	w.top = slices.SortedFunc(slices.Values(items), func(a, b geom.Item) int { return cmp.Or(cmp.Compare(d(a), d(b)), Less(a, b)) })
	w.top = w.top[:min(max(q.K, 0), len(w.top))]
	for _, it := range items {
		if len(w.top) > 0 && d(it) <= d(w.top[len(w.top)-1]) {
			w.set = append(w.set, it)
		}
	}
	slices.SortFunc(w.set, Less)
	return w
}

// Items is the answer in the canonical order: every match of a Window or
// Contained query, before any limit, and every item of a Nearest query no
// farther than the K-th nearest.
func (w *Want) Items() []geom.Item { return w.set }

// Ranked is a Nearest query's answer in the order the library documents
// for k-NN: the min(K, N) nearest items by ascending (distance², ID), so a
// tie at the K-th distance goes to the lowest IDs.
func (w *Want) Ranked() []geom.Item { return w.top }

// Len is the answer's size T: min(K, N) for a Nearest query.
func (w *Want) Len() int {
	if w.q.Kind == Nearest {
		return len(w.top)
	}
	return len(w.set)
}

// Check returns nil if got answers the query, or the first difference:
//   - Window and Contained: got is the answer, in any order;
//   - with a limit: min(limit, T) distinct items of the answer;
//   - Nearest: min(K, N) distinct items, ascending in distance, whose
//     distances are the K smallest (ties may name any of the tied items;
//     Ranked is the one answer that breaks them by ID).
func (w *Want) Check(got []geom.Item) error {
	want := w.Len()
	if w.q.Limit > 0 {
		want = min(want, w.q.Limit)
	}
	if len(got) != want {
		return fmt.Errorf("%d results, brute force %d", len(got), want)
	}
	if err := w.CheckSubset(got); err != nil {
		return err
	}
	for i, it := range got {
		if w.q.Kind == Nearest && it.Rect.Dist2(w.q.X, w.q.Y) != w.top[i].Rect.Dist2(w.q.X, w.q.Y) {
			return fmt.Errorf("result %d (item %d) at distance² %v, brute force's %d-th nearest at %v",
				i, it.ID, it.Rect.Dist2(w.q.X, w.q.Y), i, w.top[i].Rect.Dist2(w.q.X, w.q.Y))
		}
	}
	return nil
}

// CheckRanked is Check, and for a Nearest query it also requires got to
// be Ranked: ties broken by ID, as the library documents for k-NN.
func (w *Want) CheckRanked(got []geom.Item) error {
	if err := w.Check(got); err != nil || w.q.Kind != Nearest {
		return err
	}
	for i := range got {
		if got[i] != w.top[i] {
			return fmt.Errorf("result %d is item %d, brute force's (distance², ID) order has item %d", i, got[i].ID, w.top[i].ID)
		}
	}
	return nil
}

// CheckScan runs scan, which reports the query's answer to yield until
// yield returns false, and checks what it reported as Check does.
func (w *Want) CheckScan(scan func(yield func(geom.Item) bool)) error {
	var got []geom.Item
	scan(func(it geom.Item) bool {
		got = append(got, it)
		return true
	})
	return w.Check(got)
}

// CheckSubset returns nil if got holds distinct items of the answer: what
// a canceled query may have reported before it stopped.
func (w *Want) CheckSubset(got []geom.Item) error {
	j := 0
	for _, it := range Sorted(got) {
		for j < len(w.set) && Less(w.set[j], it) < 0 {
			j++
		}
		if j == len(w.set) || w.set[j] != it {
			return fmt.Errorf("item %d %v is not in the brute-force answer, or reported twice", it.ID, it.Rect)
		}
		j++
	}
	return nil
}
