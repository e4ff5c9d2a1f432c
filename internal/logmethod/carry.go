package logmethod

import (
	"prtree/internal/geom"
	"prtree/internal/rtree"
)

// This file is the background-merge half of the logarithmic method: the
// carry protocol a compactor (internal/compact) drives. A carry runs in
// three phases:
//
//  1. BeginCarry (under the tree lock, O(1)): the buffer moves into the
//     state's merging slot and the occupied level prefix is claimed.
//     Readers keep seeing every item (buffer ∪ merging ∪ levels);
//     writers get a fresh empty buffer, so inserts during the merge land
//     there and are carried into the *next* merge.
//  2. Build (no locks, O(level) I/O): the merged level is bulk-loaded
//     off to the side onto fresh pages while readers serve the old
//     levels and writers commit their own transactions.
//  3. Install (under the tree lock, inside the caller's backend
//     transaction): the new level replaces the consumed components in
//     one atomic state swap, and the old levels' pages are freed —
//     epoch-pinned for any reader still traversing them; they join the
//     backend's free list with the commit and later allocations recycle
//     them (no checkpoint shrinks the file below its recorded page
//     count). A crash before the install commit recovers to the
//     pre-carry state via WAL replay: half-built pages past the
//     recovered page count are cut off when the reopening checkpoint
//     truncates the file to its recorded size; any below it (an
//     interleaved commit recorded the larger count) stay allocated but
//     unreferenced — a bounded leak, never corruption. The build's
//     temporaries never reach the index file at all: they live on the
//     handle's scratch store (see Tree.build).
//
// Abort unwinds phase 1: the merging snapshot returns to the buffer
// (dropping items tombstoned while in flight) and the half-built level is
// released or abandoned, depending on whether its pages are still safely
// owned (see Carry.Abort).

// Carry is an in-flight background merge. Exactly one may exist per tree;
// it is created by BeginCarry and consumed by Install or Abort.
type Carry struct {
	t        *Tree
	k        int           // target level
	items    []geom.Item   // the buffer snapshot (state.merging)
	consumed []*rtree.Tree // levels[0:k] at BeginCarry time
	built    *rtree.Tree
}

// CarryReady reports whether a background carry would start work right
// now: background mode, a full buffer, and no carry already in flight.
func (t *Tree) CarryReady() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.backgrnd && !t.flight && len(t.st.Load().buffer) >= t.base
}

// CarryKick returns the channel the tree signals (non-blocking, buffered)
// whenever an insert fills the buffer in background mode. A compactor
// selects on it to wake promptly instead of polling.
func (t *Tree) CarryKick() <-chan struct{} { return t.kick }

// SetBackground switches inline carries off (on=true): Insert only
// appends to the buffer and signals CarryKick, and a compactor is
// expected to drive BeginCarry/Build/Install. With on=false (the
// default), Insert carries synchronously inside the caller's own
// transaction bracket.
func (t *Tree) SetBackground(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.backgrnd = on
}

// BeginCarry claims a merge: the buffer becomes the carry's input
// snapshot (readers still see it via state.merging) and the occupied
// level prefix is claimed. Returns (nil, false) when there is nothing to
// merge or a carry is already in flight.
func (t *Tree) BeginCarry() (*Carry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.st.Load()
	if t.flight || len(s.buffer) < t.base {
		return nil, false
	}
	k := 0
	for k < len(s.levels) && s.levels[k] != nil {
		k++
	}
	ns := *s
	ns.buffer = nil
	ns.merging = s.buffer
	ns.mergeK = k
	t.st.Store(&ns)
	t.flight = true
	return &Carry{
		t:        t,
		k:        k,
		items:    ns.merging,
		consumed: append([]*rtree.Tree(nil), s.levels[:k]...),
	}, true
}

// Build constructs the merged level off to the side. It takes no locks:
// the input snapshot and the consumed levels are frozen (BeginCarry
// guarantees no writer touches them until Install/Abort), and the bulk
// load writes only fresh pages. Safe to run concurrently with readers
// and with writer transactions. Tombstoned items are deliberately NOT
// filtered — a carry preserves physical contents, so a tombstone revived
// mid-merge (Insert of a dead id) stays correct.
func (c *Carry) Build() {
	n := len(c.items)
	for _, l := range c.consumed {
		n += l.Len()
	}
	items := make([]geom.Item, 0, n)
	items = append(items, c.items...)
	for _, l := range c.consumed {
		items = append(items, l.Items()...)
	}
	c.built = c.t.build(items)
}

// InputItems returns how many items the merge consumed in total.
func (c *Carry) InputItems() int {
	n := len(c.items)
	for _, l := range c.consumed {
		n += l.Len()
	}
	return n
}

// NewItems returns how many of the inputs came from the buffer snapshot
// (the newly absorbed items; the rest are rewrites of older levels).
func (c *Carry) NewItems() int { return len(c.items) }

// BuiltNodes returns the page count of the built level (0 before Build).
func (c *Carry) BuiltNodes() int {
	if c.built == nil {
		return 0
	}
	return c.built.Nodes()
}

// Install atomically swaps the built level in: the consumed levels and
// the merging snapshot leave the state, the new level enters, and the old
// levels' pages are freed (epoch-pinned while readers drain). The caller
// must bracket Install in the backend transaction that makes the swap
// durable — on a durable backend the frees join the committed freelist
// with that transaction, so crash recovery never leaks them.
func (c *Carry) Install() {
	t := c.t
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.st.Load()
	ns := *s
	ns.merging, ns.mergeK = nil, 0
	ns.levels = make([]*rtree.Tree, maxInt(len(s.levels), c.k+1))
	copy(ns.levels, s.levels)
	for i := 0; i < c.k; i++ {
		ns.levels[i] = nil
	}
	ns.levels[c.k] = c.built
	t.st.Store(&ns)
	t.dirChanged = true
	for _, l := range c.consumed {
		// FreePages, not Release: readers on a pre-install snapshot still
		// traverse these structs; the epoch pins keep the freed bytes
		// stable and the untouched struct keeps their root loads safe.
		l.FreePages()
	}
	t.flight = false
	t.idle.Broadcast()
}

// Abort unwinds the carry: the merging snapshot returns to the buffer and
// the consumed levels stay in place. Items tombstoned while in flight are
// physically dropped on the way back (their tombstones go with them).
//
// releaseBuilt says whether the half-built level's pages may be freed for
// reuse: true normally; false when the allocator state was externally
// rolled back during the build. The rollback restored the pre-transaction
// page count and free list, so the build's page ids are already back with
// the allocator and may belong to someone else — abandon them without
// freeing; later allocations hand the ids out again.
func (c *Carry) Abort(releaseBuilt bool) {
	t := c.t
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.st.Load()
	ns := *s
	buf := make([]geom.Item, 0, len(s.merging)+len(s.buffer))
	dead := s.dead
	for _, it := range s.merging {
		if r, gone := dead.get(it.ID); gone && r == it.Rect {
			// Tombstoned while the carry was in flight: dropping the item
			// here removes it physically, so the tombstone resolves.
			dead = dead.remove(it.ID)
			ns.stored--
			continue
		}
		buf = append(buf, it)
	}
	buf = append(buf, s.buffer...)
	ns.buffer, ns.merging, ns.mergeK, ns.dead = buf, nil, 0, dead
	t.st.Store(&ns)
	if releaseBuilt && c.built != nil {
		c.built.Release()
	}
	c.built = nil
	t.flight = false
	t.idle.Broadcast()
}

// WaitCapacity blocks while a carry is in flight and the buffer holds at
// least limit items — the insert-path backpressure that bounds buffer
// growth to O(limit) while a slow merge completes. It must be called
// OUTSIDE any transaction bracket (the in-flight carry's install needs
// its own transaction to finish).
func (t *Tree) WaitCapacity(limit int) {
	t.mu.Lock()
	for t.flight && len(t.st.Load().buffer) >= limit {
		t.idle.Wait()
	}
	t.mu.Unlock()
}

// WaitIdle blocks until no carry is in flight. Same transaction caveat as
// WaitCapacity.
func (t *Tree) WaitIdle() {
	t.mu.Lock()
	for t.flight {
		t.idle.Wait()
	}
	t.mu.Unlock()
}

// TakeGCPending consumes the deferred tombstone-GC flag: it reports true
// (and clears the flag) when a rebuild was deferred because a carry was
// in flight and no carry is in flight now. The compactor calls it each
// cycle and runs RunGC inside a transaction when it fires.
func (t *Tree) TakeGCPending() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.gcPending || t.flight {
		return false
	}
	t.gcPending = false
	return true
}

// RunGC performs the tombstone-GC rebuild if one is still warranted. Like
// Insert/Delete it must run inside the caller's transaction bracket on
// durable backends. A no-op when a carry is in flight.
func (t *Tree) RunGC() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.flight {
		t.gcPending = true
		return
	}
	s := t.st.Load()
	if 2*s.dead.len() >= s.stored && s.stored > 0 {
		t.rebuildLocked()
	}
}
