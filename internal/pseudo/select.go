// Package pseudo implements the pseudo-PR-tree of Section 2.1 of the
// paper: a four-dimensional kd-tree over the corner transform
// (xmin, ymin, xmax, ymax) where every internal node carries four priority
// leaves holding the B most extreme rectangles in each direction. It
// provides the exact in-memory construction (a keyed selection kernel over
// a permutation of the read-only input, with the kd recursion spread over a
// bounded number of workers), the I/O-efficient external grid
// construction, and a window-query engine used to verify Lemma 2.
package pseudo

import "prtree/internal/geom"

// order is one of the construction's strict total orders on items: one
// corner-transform coordinate, ascending or descending, ties broken by
// ascending id. It is a value, so the selection loop compares keys inline
// instead of calling a comparator.
type order struct {
	axis int     // corner-transform coordinate, 0..3
	sign float64 // +1 ascending, -1 descending
}

// extremeOrder is "more extreme first" along a priority direction:
// directions 0 and 1 (xmin, ymin) prefer small coordinates, directions 2
// and 3 (xmax, ymax) prefer large ones.
func extremeOrder(dir int) order {
	if dir < 2 {
		return order{axis: dir, sign: 1}
	}
	return order{axis: dir, sign: -1}
}

// axisOrder is ascending by the corner-transform coordinate — the kd-split
// order.
func axisOrder(axis int) order { return order{axis: axis & 3, sign: 1} }

// key is the item's coordinate under o, negated for descending orders so
// that every order compares (key, id) ascending.
func (o order) key(it *geom.Item) float64 { return it.Rect.Coord(o.axis) * o.sign }

// less reports whether a orders strictly before b.
func (o order) less(a, b geom.Item) bool {
	av, bv := o.key(&a), o.key(&b)
	if av != bv {
		return av < bv
	}
	return a.ID < b.ID
}

// Windows of sampleMin records or more take their pivot from a sample of
// sampleSize records, sampleGap sample ranks past k's own rank on the side
// that leaves the smaller window; smaller windows take a random one.
const (
	sampleMin  = 1024
	sampleSize = 64
	sampleGap  = 4
)

// selectK permutes ids, indices into items, so that the k smallest of the
// items they name under o are named by ids[:k] (in unspecified order). It
// is the quickselect used to peel off priority leaves and to find kd
// medians; items is only read, so disjoint parts of one permutation can be
// selected on concurrently. A sampled pivot (samplePivot) makes a priority
// peel about 1.1 passes over the window and a kd median about 1.8, against
// 2.1 and 3.2 with random ones; the result is the same whatever the sample
// says, because the loop keeps the side that holds k. Below sampleMin, a
// deterministic xorshift pivot with three-way partitioning keeps it
// expected linear on any input, including the partially-partitioned
// permutations the construction itself produces; the permutation it leaves
// depends only on the input, never on who else is running.
func selectK(items []geom.Item, ids []int32, k int, o order) {
	if k <= 0 || k >= len(ids) {
		return
	}
	lo, hi := 0, len(ids) // half-open window still containing index k-1
	rng := uint64(0x9e3779b97f4a7c15)
	for hi-lo > 1 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		pivot := lo + int(rng%uint64(hi-lo))
		if hi-lo >= sampleMin {
			pivot = samplePivot(items, ids, lo, hi, k, o, rng)
		}
		lt, gt := partition3(items, ids, lo, hi, pivot, o)
		switch {
		case k <= lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return // k falls inside the equal run: done
		}
	}
}

// samplePivot returns the position in ids[lo:hi] of a pivot for selecting
// k: of sampleSize records drawn by xorshift from seed, the one sampleGap
// ranks past k's rank among them toward the window's nearer end, so the
// side of the pivot that holds k is usually the smaller one.
func samplePivot(items []geom.Item, ids []int32, lo, hi, k int, o order, seed uint64) int {
	var s [sampleSize]struct { // in order under o
		key float64
		id  uint32
		pos int
	}
	m := hi - lo
	for i := range s {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		pos, j := lo+int((seed>>32)*uint64(m)>>32), i
		it := &items[ids[pos]]
		key := o.key(it)
		for ; j > 0 && (key < s[j-1].key || key == s[j-1].key && it.ID < s[j-1].id); j-- {
			s[j] = s[j-1]
		}
		s[j].key, s[j].id, s[j].pos = key, it.ID, pos
	}
	r := (k-lo)*sampleSize/m + sampleGap
	if 2*(k-lo) >= m {
		r -= 2 * sampleGap
	}
	return s[min(max(r, 0), sampleSize-1)].pos
}

// partition3 rearranges ids[lo:hi] into runs naming items that order
// before, equal to and after the item ids[pivot] names under o and returns
// the equal run's bounds [lt, gt). The pivot's key is read once and each
// element's key once per visit.
func partition3(items []geom.Item, ids []int32, lo, hi, pivot int, o order) (int, int) {
	p := &items[ids[pivot]]
	pv, pid := o.key(p), p.ID
	lt, i, gt := lo, lo, hi
	for i < gt {
		it := &items[ids[i]]
		v, id := o.key(it), it.ID
		switch {
		case v < pv || v == pv && id < pid:
			ids[lt], ids[i] = ids[i], ids[lt]
			lt++
			i++
		case v > pv || v == pv && id > pid:
			gt--
			ids[gt], ids[i] = ids[i], ids[gt]
		default:
			i++
		}
	}
	return lt, gt
}
