package logmethod

import "prtree/internal/geom"

// tombstones is an immutable set of deleted-but-still-stored items, id →
// rect. Every state carries one by value and readers look ids up without
// a lock, so a change never touches a published set: add and remove
// return a new one.
//
// Copying a map per change is O(tombstones) — more than a whole durable
// commit once a few thousand are outstanding. So a set is two maps: a
// base shared, untouched, by every set derived from it, and a small delta
// of the changes since that base was made (a tombstone added, or a base
// entry revived). A change copies the delta only; when the delta has
// outgrown √(2·base) entries — the size at which copying it costs what
// rebuilding the base does, amortised over the changes in between — the
// next change folds it into a fresh base. A lookup asks the delta first,
// then the base.
type tombstones struct {
	base  map[uint32]geom.Rect
	delta map[uint32]tombChange
	n     int // entries in the set
}

// tombChange is one delta entry: the id is dead with this rect, or —
// revived — no longer dead although the base still lists it.
type tombChange struct {
	rect    geom.Rect
	revived bool
}

// minTombDelta keeps small sets from folding on every change.
const minTombDelta = 32

// get returns id's tombstone, if it has one.
func (ts tombstones) get(id uint32) (geom.Rect, bool) {
	if c, ok := ts.delta[id]; ok {
		return c.rect, !c.revived
	}
	r, ok := ts.base[id]
	return r, ok
}

// has reports whether id is tombstoned.
func (ts tombstones) has(id uint32) bool {
	_, ok := ts.get(id)
	return ok
}

// len returns the number of tombstones.
func (ts tombstones) len() int { return ts.n }

// each calls fn for every tombstone, in no particular order.
func (ts tombstones) each(fn func(id uint32, r geom.Rect)) {
	for id, c := range ts.delta {
		if !c.revived {
			fn(id, c.rect)
		}
	}
	for id, r := range ts.base {
		if _, changed := ts.delta[id]; !changed {
			fn(id, r)
		}
	}
}

// add returns the set with id tombstoned at r. id must not be in the set.
func (ts tombstones) add(id uint32, r geom.Rect) tombstones {
	return ts.with(id, tombChange{rect: r}, ts.n+1)
}

// remove returns the set without id, which must be in it.
func (ts tombstones) remove(id uint32) tombstones {
	return ts.with(id, tombChange{revived: true}, ts.n-1)
}

// without returns the set minus gone, all of which must be in it — what a
// merge does with the tombstones of the items it did not copy. One fresh
// base in O(set), not a derived set per id.
func (ts tombstones) without(gone []geom.Item) tombstones {
	if len(gone) == 0 {
		return ts
	}
	if len(gone) == ts.n {
		return tombstones{}
	}
	base := make(map[uint32]geom.Rect, ts.n)
	ts.each(func(id uint32, r geom.Rect) { base[id] = r })
	for _, it := range gone {
		delete(base, it.ID)
	}
	return tombstones{base: base, n: len(base)}
}

// with returns the set after one change, n entries large.
func (ts tombstones) with(id uint32, c tombChange, n int) tombstones {
	if d := len(ts.delta); d >= minTombDelta && d*d > 2*len(ts.base) {
		base := make(map[uint32]geom.Rect, n)
		ts.each(func(id uint32, r geom.Rect) { base[id] = r })
		ts = tombstones{base: base, n: ts.n}
	}
	delta := make(map[uint32]tombChange, len(ts.delta)+1)
	for k, v := range ts.delta {
		delta[k] = v
	}
	if _, inBase := ts.base[id]; c.revived && !inBase {
		delete(delta, id) // it only ever lived in the delta
	} else {
		delta[id] = c
	}
	return tombstones{base: ts.base, delta: delta, n: n}
}
