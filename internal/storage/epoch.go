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
	// directory swap of a dynamic index — a carry, a rebuild, a Settle —
	// (SnapshotAdvance), not per operation.
	Epoch uint64
	// Readers is the number of snapshot readers currently inside an
	// Enter/Leave bracket.
	Readers int
	// PinnedPages is the number of freed pages whose reuse is deferred
	// because a reader from the epoch they were freed in is still active.
	PinnedPages int
}

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
// writer advances the epoch right after the frees of every swap, bounding
// the overshoot to the readers that entered between one swap's store and
// its advance.
type epochPins struct {
	mu     sync.Mutex
	epoch  uint64
	active map[uint64]int // epoch token → readers inside the bracket
	pins   map[PageID]uint64
}

// SnapshotEnter implements Backend.
func (p *epochPins) SnapshotEnter() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active == nil {
		p.active = make(map[uint64]int)
	}
	p.active[p.epoch]++
	return p.epoch
}

// SnapshotLeave implements Backend.
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

// SnapshotAdvance implements Backend.
func (p *epochPins) SnapshotAdvance() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epoch++
	p.drainLocked()
}

// SnapshotStats implements Backend.
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
