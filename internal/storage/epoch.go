package storage

import (
	"slices"
	"sync"
)

// SnapshotStats is a point-in-time view of a backend's epoch machinery:
// the current epoch, the number of in-flight snapshot readers, and how
// many freed pages are pinned — on the freelist but withheld from Alloc —
// until the readers that may still dereference them drain.
type SnapshotStats struct {
	// Epoch is the current reclamation epoch. It advances once per
	// installed compaction (SnapshotAdvance), not per operation.
	Epoch uint64
	// Readers is the number of snapshot readers currently inside an
	// Enter/Leave bracket.
	Readers int
	// PinnedPages is the number of freed pages whose reuse is deferred
	// because a reader from the epoch they were freed in is still active.
	PinnedPages int
}

// Snapshotter is the optional copy-on-write capability of a Backend.
// A snapshot reader brackets its page accesses with SnapshotEnter /
// SnapshotLeave; while any reader is inside the bracket, pages passed to
// Free are *retired* rather than recycled: they join the durable freelist
// as usual (so the committed on-disk state never leaks them across a
// crash), but Alloc refuses to hand them out again until every reader
// that might still hold a reference has left. The effect is copy-on-write
// at page granularity — a writer running concurrently with readers always
// allocates fresh or long-drained pages, never a page a reader can still
// see — without a second allocator or an undo log.
//
// SnapshotAdvance bumps the epoch; a compaction calls it after the
// install commit so pins taken during the merge drain as soon as the
// pre-install readers finish. Crash safety is free: pins live only in
// memory, a restart has no readers, so recovery sees the plain freelist.
type Snapshotter interface {
	// SnapshotEnter begins a snapshot read and returns the epoch token
	// that must be passed to SnapshotLeave.
	SnapshotEnter() uint64
	// SnapshotLeave ends the snapshot read begun by the SnapshotEnter
	// that returned epoch. Pins that no remaining reader can reference
	// are released.
	SnapshotLeave(epoch uint64)
	// SnapshotAdvance moves to the next epoch. Readers entering after
	// the call never pin pages freed before it.
	SnapshotAdvance()
	// SnapshotStats reports the current epoch, reader and pin counts.
	SnapshotStats() SnapshotStats
}

// EnsureSnapshotter returns b's Snapshotter implementation, or a no-op
// one, so read paths can bracket unconditionally. Decorators forward the
// interface (see Counting), so the check is on b itself.
func EnsureSnapshotter(b Backend) Snapshotter {
	if s, ok := b.(Snapshotter); ok {
		return s
	}
	return nopSnap{}
}

// nopSnap is the Snapshotter no-op for backends without the capability.
type nopSnap struct{}

func (nopSnap) SnapshotEnter() uint64        { return 0 }
func (nopSnap) SnapshotLeave(uint64)         {}
func (nopSnap) SnapshotAdvance()             {}
func (nopSnap) SnapshotStats() SnapshotStats { return SnapshotStats{} }

// epochPins implements the epoch bookkeeping shared by Disk and
// FileBackend. It is deliberately decoupled from the backends' own
// locks: retire, takeLowest and trimTail are called with the owner's allocator mutex
// held, and epochPins never calls back into the backend, so the ordering
// backend.mu → pins.mu is acyclic.
//
// The scheme is conservative: a page freed at epoch E while readers are
// active is pinned at E and stays pinned until no reader with a token
// ≤ E remains. A reader that entered after the free but in the same
// epoch pins it too — harmless, since pins only delay reuse, and the
// writer advances the epoch right after installing a new state, bounding
// the overshoot to one compaction's worth of readers.
type epochPins struct {
	mu     sync.Mutex
	epoch  uint64
	active map[uint64]int // epoch token → readers inside the bracket
	pins   map[PageID]uint64
}

// SnapshotEnter implements Snapshotter.
func (p *epochPins) SnapshotEnter() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active == nil {
		p.active = make(map[uint64]int)
	}
	p.active[p.epoch]++
	return p.epoch
}

// SnapshotLeave implements Snapshotter.
func (p *epochPins) SnapshotLeave(epoch uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n, ok := p.active[epoch]
	if !ok {
		panic("storage: SnapshotLeave without matching SnapshotEnter")
	}
	if n == 1 {
		delete(p.active, epoch)
	} else {
		p.active[epoch] = n - 1
	}
	p.drainLocked()
}

// SnapshotAdvance implements Snapshotter.
func (p *epochPins) SnapshotAdvance() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epoch++
	p.drainLocked()
}

// SnapshotStats implements Snapshotter.
func (p *epochPins) SnapshotStats() SnapshotStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	readers := 0
	for _, n := range p.active {
		readers += n
	}
	return SnapshotStats{Epoch: p.epoch, Readers: readers, PinnedPages: len(p.pins)}
}

// drainLocked releases pins no remaining reader can reference: those
// whose pin epoch precedes the oldest active reader (all of them when no
// reader is active). Caller holds p.mu.
func (p *epochPins) drainLocked() {
	if len(p.pins) == 0 {
		return
	}
	if len(p.active) == 0 {
		clear(p.pins)
		return
	}
	min := ^uint64(0)
	for e := range p.active {
		if e < min {
			min = e
		}
	}
	for id, e := range p.pins {
		if e < min {
			delete(p.pins, id)
		}
	}
}

// retire records that page id was freed; if snapshot readers are active
// it is pinned at the current epoch so takeLowest withholds it from reuse.
// Called with the owning backend's allocator lock held.
func (p *epochPins) retire(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.active) == 0 {
		delete(p.pins, id)
		return
	}
	if p.pins == nil {
		p.pins = make(map[PageID]uint64)
	}
	p.pins[id] = p.epoch
}

// freeHeap is a free list kept as a binary min-heap on the page id, so the
// allocator hands out the lowest free page without scanning the list: a
// store fills the holes nearest its start first and its free pages gather
// at the end, where a page file's checkpoint truncates them away. Any
// order is a valid persisted form — a loader calls init — and an ascending
// one is a heap as it stands.
type freeHeap []PageID

// init establishes the heap order over entries in arbitrary order.
func (h freeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *freeHeap) push(id PageID) {
	*h = append(*h, id)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// popMin removes and returns the lowest page. The heap must not be empty.
func (h *freeHeap) popMin() PageID {
	s := *h
	id, last := s[0], len(s)-1
	s[0] = s[last]
	*h = s[:last]
	(*h).down(0)
	return id
}

func (h freeHeap) down(i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c] < h[least] {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// takeLowest removes from free and returns the page Alloc should recycle —
// the lowest one not pinned by an active snapshot — or reports false when
// every free page is pinned (the caller must extend instead). Pinned pages
// met on the way are skipped, not waited for, and stay on the list. Called
// with the owning backend's allocator lock held.
func (p *epochPins) takeLowest(free *freeHeap) (PageID, bool) {
	if len(*free) == 0 {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.pins) == 0 {
		return free.popMin(), true
	}
	var skipped []PageID
	defer func() {
		for _, id := range skipped {
			free.push(id)
		}
	}()
	for len(*free) > 0 {
		id := free.popMin()
		if _, pinned := p.pins[id]; !pinned {
			return id, true
		}
		skipped = append(skipped, id)
	}
	return 0, false
}

// unpinned returns the pages of free no active snapshot pins. Called with
// the owning backend's allocator lock held.
func (p *epochPins) unpinned(free []PageID) []PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PageID, 0, len(free))
	for _, id := range free {
		if _, pinned := p.pins[id]; !pinned {
			out = append(out, id)
		}
	}
	return out
}

// trimTail is the truncating half of a checkpoint: it drops from free the
// run of free, unpinned pages that ends the store and returns what is left
// of the list with the page count that remains. A pinned page stops the
// run — a reader may still dereference its bytes — and goes at a later
// checkpoint. Called with the owning backend's allocator lock held.
func (p *epochPins) trimTail(free freeHeap, numPages int) (freeHeap, int) {
	if len(free) == 0 || int(slices.Max(free)) != numPages-1 {
		return free, numPages // the last page is in use: nothing to give up
	}
	slices.Sort(free) // ascending is heap order too
	p.mu.Lock()
	defer p.mu.Unlock()
	for n := len(free); n > 0 && int(free[n-1]) == numPages-1; n-- {
		if _, pinned := p.pins[free[n-1]]; pinned {
			break
		}
		free, numPages = free[:n-1], numPages-1
	}
	return free, numPages
}
