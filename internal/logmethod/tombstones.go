package logmethod

import (
	"maps"

	"prtree/internal/geom"
)

// tombstones is an immutable set of deleted-but-still-stored items. A
// tombstone is the item Delete named, rect and id, so it hides exactly one
// stored copy: a deleted item's id may come back with another rect as a new
// item while the old one waits for its merge, and both may then be dead at
// once. Every state carries one set by value and readers look items up
// without a lock, so a change never touches a published set: add and
// remove return a new one.
//
// Copying a map per change is O(tombstones) — more than a whole durable
// commit once a few thousand are outstanding. So a set is two maps: a
// base shared, untouched, by every set derived from it, and a small delta
// of the items whose membership differs from the base's (a tombstone
// added, or a base entry revived). A change copies the delta only; when
// the delta has outgrown √(2·base) entries — the size at which copying it
// costs what rebuilding the base does, amortised over the changes in
// between — the next change folds it into a fresh base. An item is in the
// set if it is in exactly one of the two.
type tombstones struct {
	base  map[geom.Item]struct{}
	delta map[geom.Item]struct{}
	n     int // entries in the set
}

// minTombDelta keeps small sets from folding on every change.
const minTombDelta = 32

// has reports whether it is tombstoned.
func (ts tombstones) has(it geom.Item) bool {
	_, inBase := ts.base[it]
	_, flipped := ts.delta[it]
	return inBase != flipped
}

// len returns the number of tombstones.
func (ts tombstones) len() int { return ts.n }

// each calls fn for every tombstone, in no particular order.
func (ts tombstones) each(fn func(geom.Item)) {
	for it := range ts.delta {
		if _, inBase := ts.base[it]; !inBase {
			fn(it)
		}
	}
	for it := range ts.base {
		if _, revived := ts.delta[it]; !revived {
			fn(it)
		}
	}
}

// add returns the set with it tombstoned. it must not be in the set.
func (ts tombstones) add(it geom.Item) tombstones { return ts.flip(it, ts.n+1) }

// remove returns the set without it, which must be in it.
func (ts tombstones) remove(it geom.Item) tombstones { return ts.flip(it, ts.n-1) }

// without returns the set minus gone, all of which must be in it — what a
// merge does with the tombstones of the items it did not copy. One fresh
// base in O(set), not a derived set per item.
func (ts tombstones) without(gone []geom.Item) tombstones {
	if len(gone) == 0 {
		return ts
	}
	if len(gone) == ts.n {
		return tombstones{}
	}
	base := ts.folded()
	for _, it := range gone {
		delete(base, it)
	}
	return tombstones{base: base, n: len(base)}
}

// folded returns the set's items as one fresh map.
func (ts tombstones) folded() map[geom.Item]struct{} {
	base := make(map[geom.Item]struct{}, ts.n)
	ts.each(func(it geom.Item) { base[it] = struct{}{} })
	return base
}

// flip returns the set, n entries large, with it added if it was not in
// the set and removed if it was.
func (ts tombstones) flip(it geom.Item, n int) tombstones {
	if d := len(ts.delta); d >= minTombDelta && d*d > 2*len(ts.base) {
		ts = tombstones{base: ts.folded(), n: ts.n}
	}
	delta := make(map[geom.Item]struct{}, len(ts.delta)+1)
	maps.Copy(delta, ts.delta)
	if _, flipped := delta[it]; flipped {
		delete(delta, it) // back to what the base says
	} else {
		delta[it] = struct{}{}
	}
	return tombstones{base: ts.base, delta: delta, n: n}
}
