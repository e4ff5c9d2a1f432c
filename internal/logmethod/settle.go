package logmethod

import (
	"slices"

	"prtree/internal/storage"
)

// This file is what gives a checkpointed index file the size of what it
// holds. A carry builds its level beside the levels it replaces and frees
// those afterwards, so the holes end up low in the file and the live pages
// in its tail; the backend's allocator fills the lowest hole first and its
// checkpoint truncates the free pages at the file's end, but neither moves
// a live page. Settle does: it picks a cut, copies the pages at or above it
// into the holes below (rtree.Relocated: levels are immutable and read
// lock-free, so a page is copied, never overwritten, and its ancestors are
// copied with it for the new child reference), publishes the relocated
// levels as a new state and frees the old copies after the swap, exactly as
// a carry does — epoch pins keep them byte-stable for the readers that
// still traverse them. Everything at or above the cut is free then, and the
// owner's checkpoint returns it.
//
// Settle plans before it acts. The smallest conceivable cut is the number
// of pages in use, but the ancestor copies need holes too, and the state
// chains, rewritten wholesale along with the levels when one of their pages
// lies above the cut, need theirs; a cut that does not leave room would
// push the copies past the end of the file and grow it. So the plan counts,
// for every cut from there up, the pages a relocation would copy and the
// reusable holes below it, and takes the first cut whose copies fit the
// holes and number no more than the pages the truncation returns. When
// there is none — or no level page lies above the cuts that fit — Settle
// does nothing and costs nothing: no transaction, no page read beyond the
// internal pages the plan walks.

// Settled reports what a Settle moved. The zero value: nothing.
type Settled struct {
	Cut       storage.PageID // every page of the index lies below it now
	Copied    int            // level pages copied: those at or above Cut, and their ancestors
	Ancestors int            // of Copied, the pages below Cut, copied for a child reference alone
	Chains    int            // state pages to rewrite because one of them lay at or above Cut
}

// Settle moves the index's pages out of the tail of its store into the
// reusable holes below it, if that pays (see above). reusable is what the
// backend's allocator would hand out as things stand — FileBackend's
// ReusablePages — and commit runs fn as one backend transaction that saves
// the state afterwards, as every directory change is saved: the new levels
// and the frees of the old copies commit together. That save names the
// state chains again instead of rewriting them (see savedChains) unless the
// chains are among what moves. The caller excludes other writers for the
// duration.
func (t *Tree) Settle(reusable []storage.PageID, commit func(fn func()) error) (Settled, error) {
	t.mu.Lock()
	s := t.st.Load()
	cut, ok := t.planSettle(s, reusable)
	t.mu.Unlock()
	if !ok {
		return Settled{}, nil
	}
	var done Settled
	err := commit(func() { done = t.settleTo(s, cut) })
	return done, err
}

// planSettle returns the cut Settle should relocate to, or false when
// there is nothing to gain. Only internal pages are read.
func (t *Tree) planSettle(s *state, reusable []storage.PageID) (storage.PageID, bool) {
	dev := t.pager.Backend()
	n, used := dev.NumPages(), dev.PagesInUse()
	if n == used {
		return 0, false // no hole anywhere
	}
	// Difference arrays over the candidate cuts used..n: entry i is the
	// change from cut used+i-1 to cut used+i.
	levels, chains, holes := make([]int, n-used+2), make([]int, n-used+2), make([]int, n-used+2)
	mark := func(d []int, lo, hi, w int) { // adds w for every cut in [lo, hi]
		if lo = max(lo, used); lo <= hi {
			d[lo-used] += w
			d[hi+1-used] -= w
		}
	}
	for _, l := range s.levels {
		if l != nil {
			// A page is copied by every cut up to the top of its subtree.
			l.PageSpans(func(_, top storage.PageID) { mark(levels, used, int(top), 1) })
		}
	}
	if len(t.spill) > 0 {
		mark(chains, used, int(slices.Max(t.spill)), len(t.spill))
	}
	for _, h := range reusable {
		mark(holes, int(h)+1, n, 1)
	}
	lv, ch, h := 0, 0, 0
	for cut := used; cut < n; cut++ {
		lv += levels[cut-used]
		ch += chains[cut-used]
		h += holes[cut-used]
		switch {
		case lv == 0:
			// No level page at or above this cut, nor any later one. What is
			// up there is free, and the checkpoint's own truncation returns
			// it, or it is the chains a save has just written: the next save
			// writes them into the holes they left, and moving them now would
			// make every Sync of a compact file save twice.
			return 0, false
		case lv+ch > h: // the copies would spill past the cut
		case lv+ch <= n-cut:
			return storage.PageID(cut), true
		}
	}
	return 0, false
}

// settleTo relocates the levels of s to below cut. It runs inside the
// owner's transaction.
func (t *Tree) settleTo(s *state, cut storage.PageID) Settled {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.st.Load() != s {
		return Settled{} // the owner let a writer in after the plan: leave it be
	}
	ns := *s
	ns.levels = slices.Clone(s.levels)
	var old []storage.PageID
	for i, l := range s.levels {
		if l == nil {
			continue
		}
		if moved, freed := l.Relocated(cut); moved != l.Tree {
			ns.levels[i] = &level{Tree: moved, mbr: l.mbr}
			old = append(old, freed...)
		}
	}
	done := Settled{Cut: cut, Copied: len(old)}
	for _, id := range old {
		if id < cut {
			done.Ancestors++
		}
	}
	if len(t.spill) > 0 && slices.Max(t.spill) >= cut {
		// The save of this transaction rewrites the chains, after the level
		// copies, into the holes the plan left for them.
		t.chains.of = nil
		done.Chains = len(t.spill)
	} else if t.chains.of == s {
		t.chains.of = &ns // same buffer, same tombstones
	}
	t.st.Store(&ns)
	t.dirChanged = true
	// As in carryLocked: free only once the new state is visible, then
	// advance the epoch.
	dev := t.pager.Backend()
	for _, id := range old {
		t.pager.Invalidate(id)
		dev.Free(id)
	}
	t.snap.SnapshotAdvance()
	return done
}
