// Package logmethod implements the dynamized PR-tree the paper sketches in
// Sections 1.2 and 4: the external logarithmic method (Bentley–Saxe
// dynamization as used by Arge & Vahrenhold and the Bkd-tree) layered over
// static PR-trees.
//
// The structure keeps an in-memory buffer plus a logarithmic number of
// static PR-trees, where level i is either empty or holds at most base*2^i
// rectangles (base is one leaf's worth). The buffer is the method's first
// component, the one that lives in memory, and it is memory-sized: it holds
// as many rectangles as the levels already do, never fewer than one leaf
// and never more than maxBufferLeaves (see bufferCap). A small index is
// therefore one tree plus a buffer as big as it — plain doubling — and a
// large one is a binary counter whose smallest digits are the buffer.
// Inserting into a full buffer merges it with the occupied prefix of
// levels and with every level no larger than what the merge has
// accumulated so far, into the first empty slot that holds the result (see
// carryTarget) — a carry — so a rectangle is rewritten only into a
// component at least twice the size of the one it leaves, O(log(N/base))
// times in all, giving the amortized insertion bound of the paper while
// every level keeps the worst-case-optimal PR-tree query bound.
//
// Deletions use tombstones. Every merge purges: an item that is tombstoned
// when the merge claims its level is not copied, and its tombstone leaves
// the set with it, so the dead weight of a level lasts until its next
// merge. A global rebuild once half the stored items are dead — the
// standard amortization — remains for histories that delete without
// inserting.
//
// # Concurrency
//
// The component directory — buffer, static levels, tombstones — is an
// immutable state value swapped through an atomic pointer. Readers
// (RunWindow, AppendNearest, Items, Len) load the pointer once, bracket
// their page accesses with the backend's snapshot hooks (see
// storage.Backend.SnapshotEnter), and never take a lock: a level a reader
// is traversing stays byte-stable even while a writer replaces and frees it,
// because the freed pages are epoch-pinned until the reader drains.
// Writers (Insert, Delete, Flush) serialize on an internal mutex and
// publish copy-on-write states: a visible buffer slice is never mutated
// in place, the tombstone set is immutable (a change derives a new one at
// amortised small cost, see tombstones), and replaced levels are released
// only after the new state is visible. A carry runs inline, on the insert
// that fills the buffer, while readers go on serving the state before it.
//
// # Space
//
// A merge builds its level beside the ones it replaces — the rewriting is
// what dynamizing a static structure costs, and readers and crash recovery
// need the old levels until the swap — so while a full merge builds, the
// store holds both and is up to twice the size of its contents. What the
// merge frees afterwards lies below the level it built. Settle (settle.go)
// is the other half: at the owner's checkpoint it copies the levels' pages
// out of the store's tail into those holes, under the same copy-on-write
// rules, so that the store's end is free and the checkpoint can return it.
package logmethod

import (
	"fmt"
	"sync"
	"sync/atomic"

	"prtree/internal/bulk"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// state is one immutable version of the component directory. Writers
// build a new state (sharing unchanged components) and publish it with an
// atomic store; readers load it once and use only what they loaded.
//
// Copy-on-write rules: buffer is append-only — growing it in place is
// safe (no published state can see past its own length), but removing an
// item allocates a fresh slice; dead is an immutable set, replaced on every
// change; levels is copied whenever an entry changes.
type state struct {
	buffer []geom.Item // live items not yet in any static level
	levels []*level    // levels[i] is nil or holds at most base*2^i items
	dead   tombstones
	live   int // live items (excludes tombstoned ones)
	stored int // items physically present in buffer+levels
	merged MergeStats
}

// level is one static component. It never changes once built, so its
// bounding box is taken once — when it is built or opened — and a query
// that misses the box skips the level without reading its root.
type level struct {
	*rtree.Tree
	mbr geom.Rect
}

// maxBufferLeaves caps the insert buffer, in leaves of base items: 16 × 113
// raw items is 64 KB, and a linear scan of that many rectangles costs about
// what the 8–13 node visits of the traversal beside it do.
const maxBufferLeaves = 16

// bufferCap returns the insert buffer's capacity in state s: the number of
// items the levels hold, within [base, maxBufferLeaves*base].
func (t *Tree) bufferCap(s *state) int {
	inLevels := s.stored - len(s.buffer)
	return min(max(inLevels, t.base), maxBufferLeaves*t.base)
}

// Tree is a dynamic spatial index over the logarithmic method.
// Item IDs must be unique across live items; Delete identifies items by
// (rect, id).
//
// The bulk.Options passed to New apply to every static level the
// structure builds.
//
// Queries are safe to run concurrently with each other and with
// mutations. Mutations serialize internally, but callers that bracket
// mutations in backend transactions (see prtree.Dynamic) must serialize
// those brackets themselves — backend transactions do not nest.
type Tree struct {
	pager *storage.Pager
	opt   bulk.Options
	base  int
	snap  storage.Backend // the pager's backend, whose snapshot hooks readers bracket with

	st atomic.Pointer[state]

	mu         sync.Mutex // serializes writers
	dirChanged bool       // the level directory changed since TakeDirectoryChanged

	chain savedChain // the state pages the last SaveState owns, and for which state
}

// New creates an empty dynamic tree. base is the unit of the level
// geometry — slot i holds at most base*2^i items — and the insert buffer's
// smallest capacity (0 means one leaf's worth, i.e. the block-size fanout).
func New(pager *storage.Pager, opt bulk.Options, base int) *Tree {
	if base <= 0 {
		base = rtree.MaxFanout(pager.Backend().BlockSize())
	}
	t := &Tree{
		pager: pager,
		opt:   opt,
		base:  base,
		snap:  pager.Backend(),
	}
	t.st.Store(&state{})
	return t
}

// build bulk-loads one static level over items, which it only reads, in
// memory (bulk.PRTreeSlice). It touches no store but the pager's.
func (t *Tree) build(items []geom.Item) *level {
	return &level{Tree: bulk.PRTreeSlice(t.pager, items, t.opt), mbr: geom.ItemsMBR(items)}
}

// Base returns the unit of the level geometry: slot i holds at most
// Base()<<i items.
func (t *Tree) Base() int { return t.base }

// BufferCap returns the insert buffer's capacity as the index stands: the
// insert that brings BufferLen() up to it carries.
func (t *Tree) BufferCap() int { return t.bufferCap(t.st.Load()) }

// Len returns the number of live rectangles.
func (t *Tree) Len() int { return t.st.Load().live }

// BufferLen returns the number of items in the in-memory buffer.
func (t *Tree) BufferLen() int { return len(t.st.Load().buffer) }

// Levels returns the number of occupied static levels (for inspection).
func (t *Tree) Levels() int {
	n := 0
	for _, l := range t.st.Load().levels {
		if l != nil {
			n++
		}
	}
	return n
}

// LevelSizes returns the item count of each level slot (0 when empty),
// lowest level first — the structure's "binary counter" digits.
func (t *Tree) LevelSizes() []int {
	s := t.st.Load()
	out := make([]int, len(s.levels))
	for i, l := range s.levels {
		if l != nil {
			out[i] = l.Len()
		}
	}
	return out
}

// MergeStats counts what the carries and the tombstone rebuilds did since
// the tree was created or opened. A carry's merged items are every item it
// took, from the buffer and from the levels it replaced, tombstoned ones
// included. Its absorbed items are the buffer's alone: the ones new to the
// levels. A rebuild is counted on its own, and a Flush not at all.
type MergeStats struct {
	Merges         uint64 // carries
	GCRebuilds     uint64 // rebuilds a delete triggered once half the stored items were dead
	ItemsMerged    uint64
	ItemsAbsorbed  uint64
	PagesRewritten uint64 // pages of the levels the carries built
}

// MergeStats returns the carry and rebuild counters. Safe to call
// concurrently with mutations.
func (t *Tree) MergeStats() MergeStats { return t.st.Load().merged }

// Insert adds a rectangle. Amortized cost is O((log_{M/B} N)(log2 N)/B)
// block I/Os; the worst case (a full carry) rebuilds O(N) items.
func (t *Tree) Insert(it geom.Item) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.st.Load()
	if r, ok := s.dead.get(it.ID); ok {
		// Reinserting a tombstoned id revives it only if the rect matches;
		// otherwise the id would be ambiguous.
		if r != it.Rect {
			panic(fmt.Sprintf("logmethod: id %d reused with different rect", it.ID))
		}
		ns := *s
		ns.dead = s.dead.remove(it.ID)
		ns.live++
		t.st.Store(&ns)
		return
	}
	ns := *s
	ns.buffer = append(s.buffer, it) // append-only: safe to share the array
	ns.live++
	ns.stored++
	t.st.Store(&ns)
	if len(ns.buffer) >= t.bufferCap(&ns) {
		t.carryLocked()
	}
}

// carryTarget plans the merge of n buffered items into levels: the slots it
// takes and the slot k its result lands in. Taken are the occupied prefix —
// the binary counter's carry chain — and every level no larger than what
// the merge has accumulated by the time it reaches it, so an item is only
// rewritten into a component at least twice the size of the one it leaves.
// The result lands in the first slot, empty once the taken ones are, whose
// nominal size base<<k holds everything accumulated; a purge makes it
// smaller, never larger. A rebuild, which takes every level, asks with no
// levels for the slot alone.
func (t *Tree) carryTarget(levels []*level, n int) (take []int, k int) {
	free := make([]bool, len(levels))
	prefix := true
	for i, l := range levels {
		switch {
		case l == nil:
			free[i], prefix = true, false
		case prefix || l.Len() <= n:
			free[i] = true
			take = append(take, i)
			n += l.Len()
		}
	}
	for (k < len(levels) && !free[k]) || t.base<<uint(k) < n {
		k++
	}
	return take, k
}

// replaced returns levels with the taken slots emptied and built in slot k.
func replaced(levels []*level, take []int, k int, built *level) []*level {
	out := make([]*level, max(len(levels), k+1))
	copy(out, levels)
	for _, i := range take {
		out[i] = nil
	}
	out[k] = built
	return out
}

// gather appends to dst every item of levels[take...] that dead does not
// name and returns it, with the items dead does name: the ones a merge
// purges.
func gather(dst []geom.Item, levels []*level, take []int, dead tombstones) (live, purged []geom.Item) {
	for _, i := range take {
		for _, it := range levels[i].Items() {
			if dead.has(it.ID) {
				purged = append(purged, it)
			} else {
				dst = append(dst, it)
			}
		}
	}
	return dst, purged
}

// carryLocked merges the buffer and the levels carryTarget names into one
// new level, dropping the tombstoned items and their tombstones on the way.
// Caller holds t.mu.
func (t *Tree) carryLocked() {
	s := t.st.Load()
	take, k := t.carryTarget(s.levels, len(s.buffer))
	items, purged := gather(append([]geom.Item(nil), s.buffer...), s.levels, take, s.dead)
	built := t.build(items)
	ns := *s
	ns.buffer = nil
	ns.levels = replaced(s.levels, take, k, built)
	ns.dead = s.dead.without(purged)
	ns.stored -= len(purged)
	ns.merged.Merges++
	ns.merged.ItemsMerged += uint64(len(items) + len(purged))
	ns.merged.ItemsAbsorbed += uint64(len(s.buffer))
	ns.merged.PagesRewritten += uint64(built.Nodes())
	t.st.Store(&ns)
	t.dirChanged = true
	// Free replaced levels only after the new state is visible, so a
	// reader still traversing them entered before the swap and holds epoch
	// pins on every freed page; FreePages leaves the structs untouched for
	// those same readers. Then advance the epoch: a reader entering after
	// that loaded the new state, cannot reach the freed pages and pins none
	// of them, so they go back to the allocator once the readers from before
	// the swap have left.
	for _, i := range take {
		s.levels[i].FreePages()
	}
	t.snap.SnapshotAdvance()
}

// Delete removes the rectangle with the given rect and id, returning false
// if it is not stored (or already deleted): Find, then Remove. Deletions
// are tombstoned; once half the stored items are dead the structure
// rebuilds itself.
func (t *Tree) Delete(it geom.Item) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.Find(it)
	if ok {
		t.removeLocked(at)
	}
	return ok
}

// Stored is where Find found a live item: in the state it searched, at an
// index of that state's insert buffer, or in a static level (buf -1).
type Stored struct {
	s    *state
	buf  int
	item geom.Item
}

// Find reports where it, matched by rect and id, is stored live, and false
// if it is not stored (or already deleted). It changes nothing; the
// answer holds for Remove until the next change.
func (t *Tree) Find(it geom.Item) (Stored, bool) {
	s := t.st.Load()
	if s.dead.has(it.ID) {
		return Stored{}, false
	}
	for i, b := range s.buffer {
		if b.ID == it.ID && b.Rect == it.Rect {
			return Stored{s, i, it}, true
		}
	}
	return Stored{s, -1, it}, t.containsStored(s, it)
}

// Remove deletes the item Find found at at, as Delete does. It panics if
// the tree changed since that Find.
func (t *Tree) Remove(at Stored) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.removeLocked(at)
}

// removeLocked is Remove; the caller holds t.mu.
func (t *Tree) removeLocked(at Stored) {
	s := at.s
	if s != t.st.Load() {
		panic("logmethod: Remove of an item found before the last change")
	}
	ns := *s
	ns.live--
	if at.buf >= 0 {
		// Still in the buffer. Removal copies — the old slice may be
		// visible to in-flight readers.
		ns.buffer = make([]geom.Item, 0, len(s.buffer)-1)
		ns.buffer = append(append(ns.buffer, s.buffer[:at.buf]...), s.buffer[at.buf+1:]...)
		ns.stored--
		t.st.Store(&ns)
		return
	}
	ns.dead = s.dead.add(at.item.ID, at.item.Rect)
	t.st.Store(&ns)
	if 2*ns.dead.len() >= ns.stored && ns.stored > 0 {
		t.rebuildLocked(true)
	}
}

// containsStored checks whether a (rect, id) pair is physically present in
// a static level.
func (t *Tree) containsStored(s *state, it geom.Item) bool {
	for _, l := range s.levels {
		if l == nil {
			continue
		}
		found := false
		l.RunWindow(it.Rect, false, func(got geom.Item) bool {
			if got.ID == it.ID && got.Rect == it.Rect {
				found = true
				return false
			}
			return true
		}, rtree.RunOptions{})
		if found {
			return true
		}
	}
	return false
}

// rebuildLocked compacts everything live into a single fresh structure; gc
// says a delete asked for it, and counts it in MergeStats. Caller holds
// t.mu.
func (t *Tree) rebuildLocked(gc bool) {
	s := t.st.Load()
	var all []int
	for i, l := range s.levels {
		if l != nil {
			all = append(all, i)
		}
	}
	items, _ := gather(append(make([]geom.Item, 0, s.live), s.buffer...), s.levels, all, s.dead)
	ns := *s
	ns.buffer, ns.levels = nil, nil
	ns.dead = tombstones{}
	ns.stored = len(items)
	ns.live = len(items)
	// Less than a leaf goes back to the buffer; otherwise the compacted
	// tree lands in the slot a carry of that many items would pick.
	if len(items) >= t.base {
		_, k := t.carryTarget(nil, len(items))
		ns.levels = replaced(nil, nil, k, t.build(items))
	} else {
		ns.buffer = items
	}
	if gc {
		ns.merged.GCRebuilds++
	}
	t.st.Store(&ns)
	t.dirChanged = true
	for _, l := range s.levels { // freed and advanced as in carryLocked
		if l != nil {
			l.FreePages()
		}
	}
	t.snap.SnapshotAdvance()
}

// enter loads a consistent state under a snapshot-reader bracket. The
// Enter precedes the load, so every page freed after the load is pinned
// until leave — a level in the loaded state stays traversable even while
// a concurrent carry replaces and frees it.
func (t *Tree) enter() (*state, uint64) {
	e := t.snap.SnapshotEnter()
	return t.st.Load(), e
}

// RunWindow is rtree.Tree.RunWindow over the live set: it reports every
// live rectangle intersecting q (contained in q, when contain is set) to
// fn, the buffer's first, then each static level's with its optimal
// PR-tree bound, so the total cost is O(log(N/base) * sqrt(N/B) + T/B)
// I/Os. opt.Cancel is polled before the buffer and before every node
// visit; opt.Limit counts live results only, so tombstoned items the
// levels still hold never use it up. Safe to call concurrently with
// mutations.
func (t *Tree) RunWindow(q geom.Rect, contain bool, fn func(geom.Item) bool, opt rtree.RunOptions) (rtree.QueryStats, error) {
	var st rtree.QueryStats
	if opt.Cancel != nil {
		if err := opt.Cancel(); err != nil {
			return st, err
		}
	}
	s, e := t.enter()
	defer t.snap.SnapshotLeave(e)
	// emit counts a live result and enforces the limit; visit is emit for
	// the levels, which must be filtered against the tombstones. Buffer
	// items are never tombstoned (Delete removes them physically). rtree
	// keeps neither closure, so both stay on the stack.
	done := false // fn stopped the query, or the limit was reached
	emit := func(it geom.Item) bool {
		st.Results++
		done = (fn != nil && !fn(it)) || (opt.Limit > 0 && st.Results >= opt.Limit)
		return !done
	}
	visit := func(it geom.Item) bool { return s.dead.has(it.ID) || emit(it) }
	for _, it := range s.buffer {
		if (contain && q.Contains(it.Rect)) || (!contain && q.Intersects(it.Rect)) {
			if !emit(it) {
				return st, nil
			}
		}
	}
	for _, l := range s.levels {
		if l == nil || !q.Intersects(l.mbr) {
			continue // a level the window misses costs no page, not even its root
		}
		ls, err := l.RunWindow(q, contain, visit, rtree.RunOptions{Cancel: opt.Cancel})
		st.NodesVisited += ls.NodesVisited
		st.LeavesVisited += ls.LeavesVisited
		st.InternalVisited += ls.InternalVisited
		if err != nil || done {
			return st, err
		}
	}
	return st, nil
}

// Neighbor is a k-nearest-neighbor result: an item and its squared
// distance to the query point.
type Neighbor = rtree.Neighbor

// AppendNearest is rtree.Tree.AppendNearest over the live set: it appends
// to dst the k live rectangles closest to (x, y), at most opt.Limit of
// them, in rtree.Closest order — so dynamized results are comparable
// bit-for-bit with a one-shot build over the same live set — or returns
// dst unchanged when the query is canceled. opt.Cancel is polled before
// the buffer and before every node visit.
func (t *Tree) AppendNearest(dst []Neighbor, x, y float64, k int, opt rtree.RunOptions) ([]Neighbor, rtree.QueryStats, error) {
	var st rtree.QueryStats
	if opt.Limit > 0 && opt.Limit < k {
		k = opt.Limit
	}
	if k <= 0 {
		return dst, st, nil
	}
	if opt.Cancel != nil {
		if err := opt.Cancel(); err != nil {
			return dst, st, err
		}
	}
	s, e := t.enter()
	defer t.snap.SnapshotLeave(e)
	cp := candidates.Get().(*[]Neighbor)
	cand := (*cp)[:0]
	defer func() { *cp = cand[:0]; candidates.Put(cp) }()
	for _, it := range s.buffer {
		cand = append(cand, Neighbor{Item: it, Dist2: it.Rect.Dist2(x, y)})
	}
	// A level's k nearest may all be tombstoned, so over-fetch by the
	// tombstone count (the deletes since the levels' last merges: every
	// merge purges); the filter below drops them and the merge truncates.
	want := k + s.dead.len()
	for _, l := range s.levels {
		if l == nil {
			continue
		}
		// A level whose box lies beyond the k-th candidate so far holds
		// nothing closer: skipped unread, like a window that misses it.
		if cand = rtree.Closest(cand, k); len(cand) == k && cand[k-1].Dist2 < l.mbr.Dist2(x, y) {
			continue
		}
		base := len(cand)
		var ls rtree.QueryStats
		var err error
		cand, ls, err = l.AppendNearest(cand, x, y, want, rtree.RunOptions{Cancel: opt.Cancel})
		st.NodesVisited += ls.NodesVisited
		st.LeavesVisited += ls.LeavesVisited
		st.InternalVisited += ls.InternalVisited
		if err != nil {
			return dst, st, err
		}
		live := base
		for _, n := range cand[base:] {
			if !s.dead.has(n.Item.ID) {
				cand[live] = n
				live++
			}
		}
		cand = cand[:live]
	}
	cand = rtree.Closest(cand, k)
	st.Results = len(cand)
	return append(dst, cand...), st, nil
}

// candidates pools AppendNearest's candidate lists: each query appends
// the buffer's items and every level's answer to one, so a k-NN query
// allocates nothing but dst's growth.
var candidates = sync.Pool{New: func() any { return new([]Neighbor) }}

// Flush compacts the structure into a single static PR-tree (plus an empty
// buffer), e.g. before a read-heavy phase.
func (t *Tree) Flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rebuildLocked(false)
}

// Items returns every live rectangle.
func (t *Tree) Items() []geom.Item {
	s, e := t.enter()
	defer t.snap.SnapshotLeave(e)
	out := make([]geom.Item, 0, s.live)
	out = append(out, s.buffer...)
	for _, l := range s.levels {
		if l == nil {
			continue
		}
		for _, it := range l.Items() {
			if !s.dead.has(it.ID) {
				out = append(out, it)
			}
		}
	}
	return out
}
