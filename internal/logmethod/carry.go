package logmethod

import "prtree/internal/geom"

// This file is the background-merge half of the logarithmic method: the
// carry protocol a compactor (internal/compact) drives. A carry runs in
// three phases:
//
//  1. BeginCarry (under the tree lock, O(1)): the full buffer moves into
//     the state's merging slot, the levels carryTarget names are claimed
//     and the tombstone set of that instant is kept (it is immutable, so
//     keeping it is free). Readers keep seeing every item (buffer ∪
//     merging ∪ levels); writers get a fresh empty buffer, so inserts
//     during the merge land there and are carried into the *next* merge.
//  2. Build (no locks, O(level) I/O): the merged level is bulk-loaded
//     off to the side onto fresh pages while readers serve the old
//     levels and writers commit their own transactions. Items of the
//     claimed levels that were tombstoned at BeginCarry are left out.
//  3. Install (under the tree lock, inside the caller's backend
//     transaction): the new level replaces the consumed components in
//     one atomic state swap and the left-out items' tombstones leave the
//     set — except that an id Insert revived while the build ran has no
//     tombstone any more, and its item goes into the buffer instead of
//     vanishing. The old levels' pages are freed — epoch-pinned for any
//     reader still traversing them; they join the backend's free list
//     with the commit and later allocations recycle them, lowest first
//     (what is left of them at the file's end a checkpoint truncates, and
//     Settle moves the new level down into the rest: settle.go). A crash
//     before the install commit recovers to the pre-carry state via WAL
//     replay: half-built pages past the recovered page count are cut off
//     when the reopening checkpoint truncates the file to its recorded
//     size; any below it (an interleaved commit recorded the larger count)
//     stay allocated but unreferenced — a bounded leak, never corruption. The build's
//     temporaries, if it has any, never reach the index file at all: they
//     live on the handle's scratch store (see Tree.build).
//
// Abort unwinds phase 1: the merging snapshot returns to the buffer
// (dropping items tombstoned while in flight), the claimed levels stay as
// they were, tombstoned items and tombstones included, and the half-built
// level is released or abandoned, depending on whether its pages are still
// safely owned (see Carry.Abort).

// Carry is an in-flight background merge. Exactly one may exist per tree;
// it is created by BeginCarry and consumed by Install or Abort.
type Carry struct {
	t      *Tree
	take   []int       // claimed level slots
	k      int         // target slot
	items  []geom.Item // the buffer snapshot (state.merging)
	levels []*level    // the directory at BeginCarry; frozen at take until Install/Abort
	dead   tombstones  // the tombstone set at BeginCarry: what Build purges
	purged []geom.Item // items of the claimed levels Build left out
	built  *level
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
// snapshot (readers still see it via state.merging) and the levels
// carryTarget names are claimed. Returns (nil, false) when the buffer is
// not full or a carry is already in flight.
func (t *Tree) BeginCarry() (*Carry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.st.Load()
	if t.flight || len(s.buffer) < t.bufferCap(s) {
		return nil, false
	}
	take, k := t.carryTarget(s.levels, len(s.buffer))
	ns := *s
	ns.buffer = nil
	ns.merging = s.buffer
	t.st.Store(&ns)
	t.flight = true
	return &Carry{t: t, take: take, k: k, items: ns.merging, levels: s.levels, dead: s.dead}, true
}

// Build constructs the merged level off to the side. It takes no locks:
// the input snapshot and the claimed levels are frozen (BeginCarry
// guarantees no writer touches them until Install/Abort), and the bulk
// load writes only fresh pages. Safe to run concurrently with readers
// and with writer transactions. Items tombstoned at BeginCarry are left
// out and remembered: Install settles each against the tombstone set of
// its own instant, which a Delete or a reviving Insert may have changed
// meanwhile.
func (c *Carry) Build() {
	items := make([]geom.Item, 0, c.InputItems())
	items, c.purged = gather(append(items, c.items...), c.levels, c.take, c.dead)
	c.built = c.t.build(items)
}

// InputItems returns how many items the merge consumed in total.
func (c *Carry) InputItems() int {
	n := len(c.items)
	for _, i := range c.take {
		n += c.levels[i].Len()
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

// Install atomically swaps the built level in: the claimed levels and
// the merging snapshot leave the state, the new level enters, and the old
// levels' pages are freed (epoch-pinned while readers drain). Of the items
// Build left out, one that is still tombstoned is gone for good and takes
// its tombstone along; one whose id Insert revived meanwhile is live and in
// no level any more, so it joins the buffer. The caller must bracket
// Install in the backend transaction that makes the swap durable — on a
// durable backend the frees join the committed freelist with that
// transaction, so crash recovery never leaks them.
func (c *Carry) Install() {
	t := c.t
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.st.Load()
	ns := *s
	var gone []geom.Item
	for _, it := range c.purged {
		if s.dead.has(it.ID) {
			gone = append(gone, it)
		} else {
			ns.buffer = append(ns.buffer, it) // append-only: see Insert
		}
	}
	ns.dead = s.dead.without(gone)
	ns.stored -= len(gone)
	ns.merging = nil
	ns.levels = replaced(s.levels, c.take, c.k, c.built)
	t.st.Store(&ns)
	t.dirChanged = true
	for _, i := range c.take {
		// FreePages, not Release: readers on a pre-install snapshot still
		// traverse these structs; the epoch pins keep the freed bytes
		// stable and the untouched struct keeps their root loads safe.
		c.levels[i].FreePages()
	}
	t.flight = false
	t.idle.Broadcast()
}

// Abort unwinds the carry: the merging snapshot returns to the buffer and
// the claimed levels stay in place, with the items Build left out and
// their tombstones. Snapshot items tombstoned while in flight are
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
	ns.buffer, ns.merging, ns.dead = buf, nil, dead
	t.st.Store(&ns)
	if releaseBuilt && c.built != nil {
		c.built.Release()
	}
	c.built, c.purged = nil, nil
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
