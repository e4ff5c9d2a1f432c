package bulk

import (
	"math"

	"prtree/internal/geom"
	"prtree/internal/parallel"
)

// Key is a sort key with a total order: Main first, then Tie (conventionally
// the rectangle id, which makes every ordering strict even with duplicate
// coordinates — the paper assumes distinct coordinates; the tie-break
// removes that assumption).
type Key struct {
	Main uint64
	Tie  uint32
}

// Less reports whether k orders strictly before o.
func (k Key) Less(o Key) bool {
	if k.Main != o.Main {
		return k.Main < o.Main
	}
	return k.Tie < o.Tie
}

// KeyFunc extracts the sort key of an item. It must be pure and safe to
// call from multiple goroutines (every provided KeyFunc is).
type KeyFunc func(geom.Item) Key

// Float64Key maps a float64 to a uint64 such that the uint64 order matches
// the float64 order (for all non-NaN values, with -0 == +0 ordered by bits).
// This is the classic sign-flip trick.
func Float64Key(v float64) uint64 {
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | (1 << 63)
}

// AxisKey returns a KeyFunc ordering items by the axis-th corner-transform
// coordinate (0=xmin, 1=ymin, 2=xmax, 3=ymax), ties broken by id. Axes 2
// and 3 sort ascending; callers wanting "maximal xmax first" iterate from
// the tail.
func AxisKey(axis int) KeyFunc {
	return func(it geom.Item) Key {
		return Key{Main: Float64Key(it.Rect.Coord(axis)), Tie: it.ID}
	}
}

// UintKey adapts a uint64-valued function (e.g. a Hilbert index) into a
// KeyFunc with id tie-break.
func UintKey(f func(geom.Item) uint64) KeyFunc {
	return func(it geom.Item) Key {
		return Key{Main: f(it), Tie: it.ID}
	}
}

// AxisKeys returns the four corner-transform orderings, AxisKey(0..3): the
// key list of the loaders that work on four sorted lists (PR, TGS).
func AxisKeys() []KeyFunc {
	return []KeyFunc{AxisKey(0), AxisKey(1), AxisKey(2), AxisKey(3)}
}

// Orders returns, for each key, the positions of items in key order, equal
// keys in input order: each key computed once a record, an LSD radix sort
// over 16-byte (key, position) records. The keys are sorted on up to
// workers goroutines (bounded by GOMAXPROCS), each with an arena of 32
// bytes a record that it reuses for every key it sorts; each result adds
// four bytes a record.
func Orders(items []geom.Item, keys []KeyFunc, workers int) [][]int32 {
	w := min(parallel.Bound(workers), len(keys))
	arenas := make(chan *sortArena, w)
	for range w {
		arenas <- &sortArena{recs: make([]sortRec, len(items)), scratch: make([]sortRec, len(items))}
	}
	out := make([][]int32, len(keys))
	parallel.Run(w, len(keys), func(k int) {
		s := <-arenas
		recs := s.recs[:len(items)]
		for i := range items {
			key := keys[k](items[i])
			recs[i] = sortRec{main: key.Main, tie: key.Tie, pos: uint32(i)}
		}
		recs = sortRecs(recs, s.scratch)
		perm := make([]int32, len(recs))
		for i, r := range recs {
			perm[i] = int32(r.pos)
		}
		out[k] = perm
		arenas <- s
	})
	return out
}

// sortArena is one worker's scratch: the two record slices the radix sort
// moves between.
type sortArena struct {
	recs    []sortRec
	scratch []sortRec
}
