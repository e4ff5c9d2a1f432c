// Package logmethod implements the dynamized PR-tree the paper sketches in
// Sections 1.2 and 4: the external logarithmic method (Bentley–Saxe
// dynamization as used by Arge & Vahrenhold and the Bkd-tree) layered over
// static PR-trees.
//
// The structure keeps an in-memory buffer of up to base rectangles plus a
// logarithmic number of static PR-trees, where level i is either empty or
// holds exactly base*2^i rectangles. Inserting into a full buffer merges
// the buffer with the occupied prefix of levels into the first empty level
// — a binary-counter carry — so every rectangle is rebuilt O(log(N/base))
// times, giving the amortized insertion bound of the paper while every
// level keeps the worst-case-optimal PR-tree query bound. Deletions use
// tombstones with a global rebuild once half the stored items are dead,
// the standard amortization.
//
// # Concurrency
//
// The component directory — buffer, static levels, tombstones — is an
// immutable state value swapped through an atomic pointer. Readers
// (Query, Contained, Nearest, Items, Len) load the pointer once, bracket
// their page accesses with the backend's Snapshotter (see
// storage.Snapshotter), and never take a lock: a level a reader is
// traversing stays byte-stable even while a writer replaces and frees it,
// because the freed pages are epoch-pinned until the reader drains.
// Writers (Insert, Delete, Flush) serialize on an internal mutex and
// publish copy-on-write states: a visible buffer slice is never mutated
// in place, the tombstone set is immutable (a change derives a new one at
// amortised small cost, see tombstones), and replaced levels are released
// only after the new state is visible.
//
// Carry merges can also run off to the side: see carry.go and
// internal/compact for the background protocol (a merge consumes a
// snapshot of the buffer and the occupied level prefix while readers and
// writers keep going, then installs atomically).
package logmethod

import (
	"fmt"
	"sort"
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
// change; levels is copied whenever an entry changes. merging is the
// buffer snapshot an in-flight background carry consumed — still visible
// to queries, frozen until the carry installs or aborts.
type state struct {
	buffer  []geom.Item   // live items not yet in any static level
	merging []geom.Item   // buffer snapshot owned by the in-flight carry (nil when idle)
	mergeK  int           // levels[0:mergeK] are also consumed by that carry
	levels  []*rtree.Tree // levels[i] is nil or holds ~base*2^i items
	dead    tombstones
	live    int // live items (excludes tombstoned ones)
	stored  int // items physically present in buffer+merging+levels
}

// Tree is a dynamic spatial index over the logarithmic method.
// Item IDs must be unique across live items; Delete identifies items by
// (rect, id).
//
// The bulk.Options passed to New — including Options.Layout — apply to
// every static level the structure builds, so the logarithmic method runs
// on compressed pages the same way the one-shot loaders do.
//
// Queries are safe to run concurrently with each other and with
// mutations. Mutations serialize internally, but callers that bracket
// mutations in backend transactions (see prtree.Dynamic) must serialize
// those brackets themselves — backend transactions do not nest.
type Tree struct {
	pager   *storage.Pager
	opt     bulk.Options
	base    int
	snap    storage.Snapshotter
	scratch *storage.Scratch // where builds put their temporaries; nil = the pager's backend

	st atomic.Pointer[state]

	mu         sync.Mutex    // serializes writers and carry transitions
	idle       *sync.Cond    // broadcast when an in-flight carry installs or aborts
	flight     bool          // a background carry is in flight
	backgrnd   bool          // inline carries disabled; a compactor drives them
	gcPending  bool          // a tombstone-GC rebuild is due but was deferred
	dirChanged bool          // the level directory changed since TakeDirectoryChanged
	kick       chan struct{} // buffered signal: buffer is full, carry wanted

	visitors sync.Pool // query-path scratch (*levelVisitor)
	rebuf    []geom.Item

	spill []storage.PageID // state pages owned by the last SaveState
}

// New creates an empty dynamic tree. base is the buffer capacity (0 means
// one leaf's worth, i.e. the layout's fanout).
func New(pager *storage.Pager, opt bulk.Options, base int) *Tree {
	if base <= 0 {
		base = opt.Layout.MaxFanout(pager.Backend().BlockSize())
	}
	t := &Tree{
		pager: pager,
		opt:   opt,
		base:  base,
		snap:  storage.EnsureSnapshotter(pager.Backend()),
		kick:  make(chan struct{}, 1),
	}
	t.idle = sync.NewCond(&t.mu)
	t.st.Store(&state{})
	return t
}

// SetScratch makes every later level build put its input file and
// temporaries on s instead of the pager's backend, which then receives
// finished tree pages only. Call it before the first mutation.
func (t *Tree) SetScratch(s *storage.Scratch) { t.scratch = s }

// build bulk-loads one static level over items. It takes no tree lock (a
// background carry builds while writers commit), and the scratch store is
// safe for that.
func (t *Tree) build(items []geom.Item) *rtree.Tree {
	var built *rtree.Tree
	err := t.scratch.Use(func() error {
		in := storage.NewItemFileFrom(t.scratch.Or(t.pager.Backend()), items)
		built = bulk.Load(bulk.LoaderPR, t.pager, in, t.opt)
		return nil
	})
	if err != nil {
		// Only the scratch file's creation can fail here; like every other
		// backend I/O failure inside a mutation it surfaces as a panic.
		panic(err)
	}
	return built
}

// Base returns the buffer capacity.
func (t *Tree) Base() int { return t.base }

// Len returns the number of live rectangles.
func (t *Tree) Len() int { return t.st.Load().live }

// BufferLen returns the number of items in the in-memory buffer (not
// counting a snapshot an in-flight carry owns).
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

// Insert adds a rectangle. Amortized cost is O((log_{M/B} N)(log2 N)/B)
// block I/Os; the worst case (a full carry) rebuilds O(N) items — unless
// a background compactor is attached, in which case Insert only appends
// to the buffer and the carry runs off to the side.
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
	if len(ns.buffer) >= t.base {
		if t.backgrnd {
			t.signalCarry()
		} else {
			t.carryLocked()
		}
	}
}

// signalCarry nudges the attached compactor without blocking.
func (t *Tree) signalCarry() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// carryLocked merges the buffer and the occupied prefix of levels into
// the first empty level, synchronously. The merge scratch is retained
// across carries (rebuf): every insertion that fills the in-memory buffer
// triggers one, so reusing the slice keeps the steady-state insert path
// allocation-lean. (The scratch is never published to readers — only the
// built tree is.) Caller holds t.mu with no carry in flight.
func (t *Tree) carryLocked() {
	s := t.st.Load()
	k := 0
	for k < len(s.levels) && s.levels[k] != nil {
		k++
	}
	items := append(t.rebuf[:0], s.buffer...)
	for i := 0; i < k; i++ {
		items = append(items, s.levels[i].Items()...)
	}
	// Retain only modestly sized buffers: small carries (the geometrically
	// common case) hit every base insertions, while a full-prefix carry is
	// rare and O(N)-sized — keeping that one alive would pin the largest
	// merge ever seen for the tree's lifetime.
	if cap(items) <= 16*t.base {
		t.rebuf = items
	} else {
		t.rebuf = nil
	}
	built := t.build(items)
	ns := *s
	ns.buffer = nil
	ns.levels = make([]*rtree.Tree, maxInt(len(s.levels), k+1))
	copy(ns.levels, s.levels)
	for i := 0; i < k; i++ {
		ns.levels[i] = nil
	}
	ns.levels[k] = built
	t.st.Store(&ns)
	t.dirChanged = true
	// Free replaced levels only after the new state is visible, so a
	// reader still traversing them holds epoch pins on every freed page;
	// FreePages leaves the structs untouched for those same readers.
	for i := 0; i < k; i++ {
		s.levels[i].FreePages()
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Delete removes the rectangle with the given rect and id, returning false
// if it is not stored (or already deleted). Deletions are tombstoned; once
// half the stored items are dead the structure rebuilds itself (the
// rebuild is deferred while a background carry is in flight — the
// compactor picks it up when the carry lands).
func (t *Tree) Delete(it geom.Item) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.st.Load()
	if s.dead.has(it.ID) {
		return false
	}
	// Fast path: still in the buffer. Removal copies — the old slice may
	// be visible to in-flight readers.
	for i, b := range s.buffer {
		if b.ID == it.ID && b.Rect == it.Rect {
			ns := *s
			ns.buffer = make([]geom.Item, 0, len(s.buffer)-1)
			ns.buffer = append(append(ns.buffer, s.buffer[:i]...), s.buffer[i+1:]...)
			ns.live--
			ns.stored--
			t.st.Store(&ns)
			return true
		}
	}
	if !t.containsStored(s, it) {
		return false
	}
	ns := *s
	ns.dead = s.dead.add(it.ID, it.Rect)
	ns.live--
	t.st.Store(&ns)
	if 2*ns.dead.len() >= ns.stored && ns.stored > 0 {
		if t.flight {
			// A background carry holds references to the levels; the GC
			// rebuild would release them. Defer it to the compactor.
			t.gcPending = true
		} else {
			t.rebuildLocked()
		}
	}
	return true
}

// containsStored checks whether a (rect, id) pair is physically present —
// in the in-flight carry's buffer snapshot or in a static level.
func (t *Tree) containsStored(s *state, it geom.Item) bool {
	for _, m := range s.merging {
		if m.ID == it.ID && m.Rect == it.Rect {
			return true
		}
	}
	for _, l := range s.levels {
		if l == nil {
			continue
		}
		found := false
		l.Query(it.Rect, func(got geom.Item) bool {
			if got.ID == it.ID && got.Rect == it.Rect {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// rebuildLocked compacts everything live into a single fresh structure.
// Caller holds t.mu with no carry in flight.
func (t *Tree) rebuildLocked() {
	s := t.st.Load()
	items := make([]geom.Item, 0, s.live)
	items = append(items, s.buffer...)
	for _, l := range s.levels {
		if l == nil {
			continue
		}
		for _, it := range l.Items() {
			if !s.dead.has(it.ID) {
				items = append(items, it)
			}
		}
	}
	ns := *s
	ns.buffer, ns.levels = nil, nil
	ns.dead = tombstones{}
	ns.stored = len(items)
	ns.live = len(items)
	// Small remainders go back to the buffer; otherwise the compacted tree
	// lands at the level matching its size (sizes are approximate after a
	// rebuild, which only affects constants in the amortized analysis).
	if len(items) > 0 && len(items) >= t.base {
		k := 0
		for t.base<<uint(k+1) <= len(items) {
			k++
		}
		ns.levels = make([]*rtree.Tree, k+1)
		ns.levels[k] = t.build(items)
	} else {
		ns.buffer = items
	}
	t.st.Store(&ns)
	t.gcPending = false
	t.dirChanged = true
	for _, l := range s.levels {
		if l != nil {
			l.FreePages() // structs stay intact for stale-snapshot readers
		}
	}
}

// QueryStats aggregates the per-level query statistics.
type QueryStats struct {
	LeavesVisited int
	NodesVisited  int
	Results       int
}

// levelVisitor is pooled query-path scratch: it holds the per-query state
// the per-level callback closes over and owns one pre-bound closure
// (visit), created once per pooled instance. Pooling it — the same
// treatment PR 3 gave the rtree/prtreed traversal stacks — means a
// steady-state Query allocates nothing for its traversal plumbing, however
// many static levels it fans across. Nested queries (issued from fn) each
// grab their own visitor.
type levelVisitor struct {
	dead    tombstones
	st      *QueryStats
	fn      func(geom.Item) bool
	aborted bool
	visit   func(geom.Item) bool
}

func (t *Tree) grabVisitor() *levelVisitor {
	v, _ := t.visitors.Get().(*levelVisitor)
	if v == nil {
		v = &levelVisitor{}
		v.visit = func(it geom.Item) bool {
			if v.dead.has(it.ID) {
				return true
			}
			v.st.Results++
			if v.fn != nil && !v.fn(it) {
				v.aborted = true
				return false
			}
			return true
		}
	}
	return v
}

func (t *Tree) releaseVisitor(v *levelVisitor) {
	v.dead, v.st, v.fn = tombstones{}, nil, nil
	t.visitors.Put(v)
}

// enter loads a consistent state under a snapshot-reader bracket. The
// Enter precedes the load, so every page freed after the load is pinned
// until leave — a level in the loaded state stays traversable even while
// a concurrent carry replaces and frees it.
func (t *Tree) enter() (*state, uint64) {
	e := t.snap.SnapshotEnter()
	return t.st.Load(), e
}

// Query reports every live rectangle intersecting q. Each static level is
// queried with its optimal PR-tree bound, so the total cost is
// O(log(N/base) * sqrt(N/B) + T/B) I/Os. Safe to call concurrently with
// mutations and background carries.
func (t *Tree) Query(q geom.Rect, fn func(geom.Item) bool) QueryStats {
	s, e := t.enter()
	defer t.snap.SnapshotLeave(e)
	return t.queryState(s, q, false, fn)
}

// Contained reports every live rectangle fully contained in q.
func (t *Tree) Contained(q geom.Rect, fn func(geom.Item) bool) QueryStats {
	s, e := t.enter()
	defer t.snap.SnapshotLeave(e)
	return t.queryState(s, q, true, fn)
}

// queryState runs a window (or containment) query against one state.
// Buffer items are never tombstoned (Delete removes them physically), but
// the merging snapshot and the levels must be filtered against dead.
func (t *Tree) queryState(s *state, q geom.Rect, contain bool, fn func(geom.Item) bool) QueryStats {
	var st QueryStats
	match := func(r geom.Rect) bool {
		if contain {
			return q.Contains(r)
		}
		return q.Intersects(r)
	}
	for _, it := range s.buffer {
		if match(it.Rect) {
			st.Results++
			if fn != nil && !fn(it) {
				return st
			}
		}
	}
	for _, it := range s.merging {
		if s.dead.has(it.ID) {
			continue
		}
		if match(it.Rect) {
			st.Results++
			if fn != nil && !fn(it) {
				return st
			}
		}
	}
	v := t.grabVisitor()
	defer t.releaseVisitor(v)
	v.dead, v.st, v.fn, v.aborted = s.dead, &st, fn, false
	for _, l := range s.levels {
		if l == nil {
			continue
		}
		ls, _ := l.RunWindow(q, contain, v.visit, rtree.RunOptions{})
		st.LeavesVisited += ls.LeavesVisited
		st.NodesVisited += ls.NodesVisited
		if v.aborted {
			return st
		}
	}
	return st
}

// QueryCollect returns all live rectangles intersecting q.
func (t *Tree) QueryCollect(q geom.Rect) []geom.Item {
	var out []geom.Item
	t.Query(q, func(it geom.Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

// Neighbor is a k-nearest-neighbor result: an item and its squared
// distance to the query point.
type Neighbor = rtree.Neighbor

// Nearest returns the k live rectangles closest to (x, y), in ascending
// (distance, id) order — the same deterministic order the static tree's
// best-first search emits, so dynamized results are comparable
// bit-for-bit with a one-shot build over the same live set.
func (t *Tree) Nearest(x, y float64, k int) []Neighbor {
	s, e := t.enter()
	defer t.snap.SnapshotLeave(e)
	if k <= 0 {
		return nil
	}
	var cand []Neighbor
	add := func(it geom.Item) {
		cand = append(cand, Neighbor{Item: it, Dist2: pointRectDist2(x, y, it.Rect)})
	}
	for _, it := range s.buffer {
		add(it)
	}
	for _, it := range s.merging {
		if !s.dead.has(it.ID) {
			add(it)
		}
	}
	// A level's k nearest may all be tombstoned, so over-fetch by the
	// tombstone count; the merge below filters and truncates.
	want := k + s.dead.len()
	for _, l := range s.levels {
		if l == nil {
			continue
		}
		nb, _, _ := l.RunNearest(x, y, want, rtree.RunOptions{})
		for _, n := range nb {
			if !s.dead.has(n.Item.ID) {
				cand = append(cand, n)
			}
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].Dist2 != cand[j].Dist2 {
			return cand[i].Dist2 < cand[j].Dist2
		}
		return cand[i].Item.ID < cand[j].Item.ID
	})
	if len(cand) > k {
		cand = cand[:k]
	}
	return cand
}

// pointRectDist2 returns the squared Euclidean distance from a point to
// the nearest point of r (0 if inside) — the metric the static tree's
// best-first search uses, duplicated here so merged results rank
// identically.
func pointRectDist2(x, y float64, r geom.Rect) float64 {
	var dx, dy float64
	switch {
	case x < r.MinX:
		dx = r.MinX - x
	case x > r.MaxX:
		dx = x - r.MaxX
	}
	switch {
	case y < r.MinY:
		dy = r.MinY - y
	case y > r.MaxY:
		dy = y - r.MaxY
	}
	return dx*dx + dy*dy
}

// Flush compacts the structure into a single static PR-tree (plus an empty
// buffer), e.g. before a read-heavy phase. If a background carry is in
// flight, Flush waits for it to land first; callers that drive carries
// through a compactor should drain it before flushing (see
// compact.Compactor.Drain) so the wait cannot deadlock on the caller's own
// transaction bracket.
func (t *Tree) Flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.flight {
		t.idle.Wait()
	}
	t.rebuildLocked()
}

// Items returns every live rectangle.
func (t *Tree) Items() []geom.Item {
	s, e := t.enter()
	defer t.snap.SnapshotLeave(e)
	out := make([]geom.Item, 0, s.live)
	out = append(out, s.buffer...)
	for _, it := range s.merging {
		if !s.dead.has(it.ID) {
			out = append(out, it)
		}
	}
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
