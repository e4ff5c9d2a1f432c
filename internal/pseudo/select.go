// Package pseudo implements the pseudo-PR-tree of Section 2.1 of the
// paper: a four-dimensional kd-tree over the corner transform
// (xmin, ymin, xmax, ymax) where every internal node carries four priority
// leaves holding the B most extreme rectangles in each direction. It
// provides the exact in-memory construction (a keyed selection kernel over
// a permutation of the read-only input, with the kd recursion spread over a
// bounded number of workers) and a window-query engine used to verify
// Lemma 2. The I/O-efficient external grid construction is package
// extmem's; it builds its in-memory subproblems here and compares with
// ExtremeOrder.
//
// The in-memory construction spends its time in passes over node windows,
// each reading records through the permutation. A node of fusedMin records
// or more finds its four priority leaves in one pass (peelFused), where
// four selections would take about 4.4; smaller nodes, whose records the
// cache holds, run the four selections. Every kd median is one selection,
// about 1.8 passes, whose last round leaves the split record in place, and
// node bounds come from the leaves up, so neither costs a pass of its own.
// On the 216k Western set that is about 35 record visits a record over
// the whole build.
package pseudo

import "prtree/internal/geom"

// Order is one of the construction's strict total orders on items: one
// corner-transform coordinate, ascending or descending, ties broken by
// ascending id and then, in the in-memory construction, by index into the
// input (see before). It is a value, so the selection loop compares keys
// inline instead of calling a comparator.
type Order struct {
	axis int     // corner-transform coordinate, 0..3
	sign float64 // +1 ascending, -1 descending
}

// ExtremeOrder is "more extreme first" along a priority direction:
// directions 0 and 1 (xmin, ymin) prefer small coordinates, directions 2
// and 3 (xmax, ymax) prefer large ones.
func ExtremeOrder(dir int) Order {
	if dir < 2 {
		return Order{axis: dir, sign: 1}
	}
	return Order{axis: dir, sign: -1}
}

// axisOrder is ascending by the corner-transform coordinate — the kd-split
// order.
func axisOrder(axis int) Order { return Order{axis: axis & 3, sign: 1} }

// key is the item's coordinate under o, negated for descending orders so
// that every order compares (key, id) ascending.
func (o Order) key(it *geom.Item) float64 { return it.Rect.Coord(o.axis) * o.sign }

// Less reports whether a orders strictly before b on key and id: the
// comparison of the external construction's priority heaps
// (package extmem).
func (o Order) Less(a, b geom.Item) bool {
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

// selectK permutes ids, indices into items, so that ids[k] names the item
// of rank k under o, ids[:k] the k items before it and ids[k+1:] the ones
// after (each side in unspecified order); k outside (0, len(ids)) leaves
// ids as it is. It is the quickselect used to peel off priority leaves and
// to find kd medians, and it is the only place ids move, apart from
// peelFused's O(B) moves. items is only read, so disjoint parts of one
// permutation can be selected on concurrently.
//
// Every round is one two-way partition (partitionFew or partitionHalf): the
// orders are strict, so the pivot is the only record equal to itself and
// lands between the two sides, where a round whose pivot is rank k stops.
// A sampled pivot (samplePivot) makes a priority peel about 1.1 passes over
// the window and a kd median about 1.8. Below sampleMin, a deterministic
// xorshift pivot keeps it expected linear on any input, including the
// partially-partitioned permutations the construction itself produces; the
// permutation it leaves depends only on the input, never on who else is
// running.
func selectK(items []geom.Item, ids []int32, k int, o Order) {
	if k <= 0 || k >= len(ids) {
		return
	}
	lo, hi := 0, len(ids) // half-open window still containing index k
	rng := uint64(0x9e3779b97f4a7c15)
	for hi-lo > 1 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		pivot := lo + int(rng%uint64(hi-lo))
		if hi-lo >= sampleMin {
			pivot = samplePivot(items, ids, lo, hi, k, o, rng)
		}
		var j int
		if m := hi - lo; 8*(k-lo) < m || 8*(hi-k) < m {
			j = partitionFew(items, ids, lo, hi, pivot, o)
		} else {
			j = partitionHalf(items, ids, lo, hi, pivot, o)
		}
		switch {
		case k < j:
			hi = j
		case k > j:
			lo = j + 1
		default:
			return
		}
	}
}

// samplePivot returns the position in ids[lo:hi] of a pivot for selecting
// k: of sampleSize records drawn by xorshift from seed, the one sampleGap
// ranks past k's rank among them toward the window's nearer end, so the
// side of the pivot that holds k is usually the smaller one.
func samplePivot(items []geom.Item, ids []int32, lo, hi, k int, o Order, seed uint64) int {
	var s [sampleSize]struct { // in order under o
		key float64
		id  uint32
		v   int32
		pos int
	}
	m := hi - lo
	for i := range s {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		pos, j := lo+int((seed>>32)*uint64(m)>>32), i
		v := ids[pos]
		it := &items[v]
		key := o.key(it)
		for ; j > 0 && before(key, it.ID, v, s[j-1].key, s[j-1].id, s[j-1].v); j-- {
			s[j] = s[j-1]
		}
		s[j].key, s[j].id, s[j].v, s[j].pos = key, it.ID, v, pos
	}
	r := (k-lo)*sampleSize/m + sampleGap
	if 2*(k-lo) >= m {
		r -= 2 * sampleGap
	}
	return s[min(max(r, 0), sampleSize-1)].pos
}

// before is the construction's strict order on records given by key, id and
// index into the input: key first, then id, then index, which separates
// records that repeat an id.
func before(ak float64, aid uint32, av int32, bk float64, bid uint32, bv int32) bool {
	return ak < bk || ak == bk && (aid < bid || aid == bid && av < bv)
}

// partitionFew rearranges ids[lo:hi] around the record ids[pivot] names
// under o: the records before it to the front, then the pivot, then the
// rest, and returns the pivot's new position. Only the records before the
// pivot move, so when they are few — a peel's B — the pass only reads.
func partitionFew(items []geom.Item, ids []int32, lo, hi, pivot int, o Order) int {
	last := hi - 1
	ids[pivot], ids[last] = ids[last], ids[pivot]
	pv := ids[last]
	pk, pid := o.key(&items[pv]), items[pv].ID
	j := lo
	for i := lo; i < last; i++ {
		v := ids[i]
		it := &items[v]
		if before(o.key(it), it.ID, v, pk, pid, pv) {
			ids[i], ids[j] = ids[j], v
			j++
		}
	}
	ids[last], ids[j] = ids[j], pv
	return j
}

// partitionHalf is partitionFew without a branch on the comparison: every
// record is written once and the front grows by the comparison's outcome,
// which a kd median's coin-flip comparisons would otherwise mispredict.
func partitionHalf(items []geom.Item, ids []int32, lo, hi, pivot int, o Order) int {
	last := hi - 1
	ids[pivot], ids[last] = ids[last], ids[pivot]
	pv := ids[last]
	pk, pid := o.key(&items[pv]), items[pv].ID
	j := lo
	for i := lo; i < last; i++ {
		v := ids[i]
		it := &items[v]
		k := o.key(it)
		less := k < pk
		if k == pk {
			less = it.ID < pid || it.ID == pid && v < pv
		}
		ids[i] = ids[j]
		ids[j] = v
		j += b2i(less)
	}
	ids[last], ids[j] = ids[j], pv
	return j
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}
