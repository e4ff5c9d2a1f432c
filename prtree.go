// Package prtree is a Go implementation of the Priority R-tree of Arge,
// de Berg, Haverkort and Yi (SIGMOD 2004) — the first R-tree variant whose
// window queries are worst-case optimal: O(sqrt(N/B) + T/B) block reads
// for N rectangles, block capacity B and output size T.
//
// The package bulk-loads PR-trees (and, for comparison, the packed Hilbert,
// four-dimensional Hilbert and Top-down Greedy Split R-trees the paper
// benchmarks) onto a pluggable block store, answers point,
// containment and k-nearest-neighbor queries besides window queries, and
// offers Dynamic, the logarithmic-method index the paper proposes for
// updates (§4), which keeps the optimal query bound under insertions and
// deletions.
//
// # Mutation
//
// A static Tree is read-only once it is built: its contents change only by
// a BulkLoad rebuild, one transaction on a file-backed index. Everything
// that inserts and deletes item by item is a Dynamic. Neither ever rewrites
// a page in place — every change writes fresh pages and publishes them with
// a commit — which is what lets the file-backed store's write-ahead log
// carry no page images (see Create).
//
// # Storage backends
//
// Every tree runs on a storage Backend — the one storage contract. Two
// implementations ship with the package: the in-memory simulator that
// reproduces the paper's block-I/O accounting (Bulk, BulkWith, NewDynamic),
// and a file-backed page store for indexes that persist in place and
// outlive the process (Create/Open/Close). Each counts its own block I/O
// (IOStats), and Options.WrapBackend places a decorator of the caller's
// under a file-backed tree.
//
// # Queries
//
// The v2 query surface is one composable Query value — Window, Point,
// Contained or Nearest, refined with WithLimit, WithContext and WithStats
// — consumed, on a Tree or a Dynamic alike, through a callback (Run), a
// range-over-func iterator (Iter) or a slice (Collect):
//
//	tree, _ := prtree.Create("roads.pr", nil)
//	_ = tree.BulkLoad(prtree.PR, items)
//	for it := range tree.Iter(prtree.Window(prtree.NewRect(0, 0, 1, 1))) {
//		fmt.Println(it.ID)
//	}
//	_ = tree.Close() // persists in place; reopen with prtree.Open
//
// CollectNearest is Collect for a Nearest query that also returns each
// neighbor's squared distance, and Count counts without collecting.
//
// The read path is safe for many concurrent goroutines — the page cache
// reads each missed page once, under its shard's lock, and per-traversal
// scratch is pooled — so a batch of queries is the caller's own
// goroutines, one query each, with results identical to sequential
// execution. A BulkLoad requires exclusive access.
package prtree

import (
	"fmt"
	"sync"

	"prtree/internal/bulk"
	"prtree/internal/geom"
	"prtree/internal/logmethod"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// Rect is an axis-parallel rectangle, closed on all sides.
type Rect = geom.Rect

// Item is a rectangle tagged with the caller's object identifier. IDs must
// be unique in a Dynamic index.
type Item = geom.Item

// QueryStats reports the node visits of one query.
type QueryStats = rtree.QueryStats

// IOStats counts block reads and writes on the tree's storage backend.
type IOStats = storage.Stats

// SnapshotStats reports the storage layer's epoch state: the current
// snapshot epoch, how many readers hold snapshots, and how many freed
// pages are pinned (withheld from reuse) until those readers drain.
type SnapshotStats = storage.SnapshotStats

// NewRect builds a rectangle from two corners in any order.
func NewRect(x1, y1, x2, y2 float64) Rect { return geom.NewRect(x1, y1, x2, y2) }

// Loader selects a bulk-loading algorithm.
type Loader = bulk.Loader

// Bulk-loading algorithms: the paper's comparison set.
const (
	PR        = bulk.LoaderPR
	Hilbert   = bulk.LoaderHilbert
	Hilbert4D = bulk.LoaderHilbert4D
	TGS       = bulk.LoaderTGS
)

// Options tunes a tree. The zero value (or nil) reproduces the paper's
// setup: 4 KB blocks, 36-byte entries, fanout 113, in-memory storage.
//
// Four things are not among them. Every node is the paper's page of
// 36-byte entries, as many as the block holds, so the fanout follows from
// BlockSize. A load of a slice — Bulk, BulkWith, BulkLoad and a Dynamic's
// level builds — builds in memory over permutations of it, with no
// temporaries, since the slice is resident already, so there is no memory
// budget to set. A bounded page cache evicts the least recently used
// page. And how a file-backed tree reads its pages is fixed by the
// platform: on Linux the index file maps itself and the page cache holds
// views of the mapping, so a cache miss is a counted block read that
// copies and allocates nothing; elsewhere a miss is a checksummed pread
// into a fresh buffer. Results, CacheStats and IOStats are the same on
// both.
type Options struct {
	// BlockSize is the storage block size in bytes (default 4096). Open
	// treats a non-zero value as a requirement the index file must match.
	BlockSize int
	// CacheCapacity bounds the page cache in pages; 0 or negative means
	// unbounded (the default).
	CacheCapacity int
	// Parallelism is the worker budget of every bulk load (clamped to
	// GOMAXPROCS; 0 or 1 means serial): Bulk, BulkWith and BulkLoad, and
	// on a Dynamic the carries and rebuilds. It spreads the encoding of
	// the leaf pages, TGS's four sorts and, for the PR loader, the kd
	// recursion of the construction. The built tree — byte for byte on a
	// file-backed index — and the backend's I/O counts are identical at
	// every setting.
	Parallelism int
	// WrapBackend, when set, decorates the raw block store of a
	// file-backed tree (Create/Open) before the pager is assembled on top.
	// It is the one seam for fault injection: the tests place
	// internal/storage's Faulty decorator under a real on-disk tree here,
	// and the facade exports no fault injector of its own. A decorator
	// implements the whole Backend — transactions, snapshots and I/O
	// counters too — and one that embeds the Backend it wraps forwards
	// them all. CheckPages and PageCounts read the index file itself,
	// whatever the decorator. Ignored by the in-memory constructors.
	WrapBackend func(Backend) Backend
}

// normalized fills in the zero-value defaults. CacheCapacity keeps 0 as
// "default" (unbounded): disabling the cache requires building the pager
// through the internal packages, which the accounting experiments do.
func (o *Options) normalized() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.BlockSize <= 0 {
		out.BlockSize = storage.DefaultBlockSize
	}
	if out.CacheCapacity == 0 {
		out.CacheCapacity = -1
	}
	return out
}

// bulkOptions translates the public knobs for the internal loaders.
func (o Options) bulkOptions() bulk.Options {
	return bulk.Options{Parallelism: o.Parallelism}
}

// Tree is a static R-tree on a storage backend: the in-memory simulator
// when built with Bulk/BulkWith, a page file when built with Create/Open.
// It is read-only once built; BulkLoad
// replaces its contents wholesale. Every backend counts its own block I/O,
// so IOStats works uniformly across backends.
type Tree struct {
	handle
	inner *rtree.Tree
	bopts bulk.Options
}

// Bulk builds a PR-tree over items. opts may be nil for defaults. Every
// item's rectangle must be valid (see BulkLoad); Bulk does not check.
func Bulk(items []Item, opts *Options) *Tree {
	return BulkWith(PR, items, opts)
}

// BulkWith builds a tree with the chosen loader on a fresh in-memory
// simulator. opts may be nil. Every item's rectangle must be valid (see
// BulkLoad); BulkWith does not check, and an invalid one is stored but no
// query finds it.
func BulkWith(l Loader, items []Item, opts *Options) *Tree {
	o := opts.normalized()
	t := &Tree{handle: memHandle(o), bopts: o.bulkOptions()}
	t.inner = bulk.LoadSlice(l, t.pager, items, t.bopts)
	return t
}

// BulkLoad (re)builds the tree's contents in place from items using loader
// l: existing pages are released back to the backend and the new tree is
// built on the same storage, so a file-backed index is rebuilt within its
// file. The tree must not be queried concurrently. An item whose rectangle
// is not valid — a NaN coordinate, or a minimum above its maximum — fails
// the load with an error before anything is written.
//
// On a durable backend the rebuild is one transaction: a crash mid-load
// recovers to the previous tree, and only Commit's success publishes the
// new one. The new tree is written beside the old one, never over it: the
// old tree's pages join the free list with the commit, so after rebuilding
// a non-empty index the file holds both trees' page slots; the freed ones
// are recycled by later allocations, and a checkpoint gives back only the
// free pages that end the file. A created index owns no page until its
// first load, which therefore writes exactly Nodes() pages from page 0.
//
// Every loader builds in memory over permutations of items, which it only
// reads, and writes nothing but finished tree pages: a load makes no
// temporary file, so a file-backed index stays two files, path and
// path + ".wal", and a load into a freshly created index leaves an index
// file of exactly Nodes() pages, allocated from page 0. IOStats counts
// those page writes and nothing else.
func (t *Tree) BulkLoad(l Loader, items []Item) error {
	if t.closed {
		return fmt.Errorf("prtree: BulkLoad on closed tree")
	}
	for i, it := range items {
		if !it.Rect.Valid() {
			return fmt.Errorf("prtree: bulk load: item %d (id %d) has invalid rectangle %v", i, it.ID, it.Rect)
		}
	}
	err := t.txn(func() {
		t.inner.Release()
		t.inner = bulk.LoadSlice(l, t.pager, items, t.bopts)
	}, t.saveMeta)
	if err != nil {
		return fmt.Errorf("prtree: bulk load: %w", err)
	}
	return nil
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.inner.Len() }

// Height returns the number of tree levels.
func (t *Tree) Height() int { return t.inner.Height() }

// Nodes returns the number of storage pages the tree occupies.
func (t *Tree) Nodes() int { return t.inner.Nodes() }

// MBR returns the bounding box of all stored items.
func (t *Tree) MBR() Rect { return t.inner.MBR() }

// Fanout returns the effective maximum entries per node.
func (t *Tree) Fanout() int { return t.inner.Config().Fanout }

// Utilization returns the average leaf and internal node fill fractions.
func (t *Tree) Utilization() (leaf, internal float64) { return t.inner.Utilization() }

// CacheStats returns the page cache's hit/miss/eviction counters plus the
// active capacity. Safe to call while queries run.
func (t *Tree) CacheStats() CacheStats { return t.pager.CacheStats() }

// SnapshotStats returns the backend's snapshot-epoch state. Safe to call
// while queries run.
func (t *Tree) SnapshotStats() SnapshotStats {
	return t.io.SnapshotStats()
}

// Validate checks the structural invariants (mainly for tests and tools).
func (t *Tree) Validate() error { return t.inner.Validate() }

// Dynamic is a fully dynamic spatial index with the PR-tree query bound,
// built on the external logarithmic method the paper proposes for updates
// (Sections 1.2 and 4).
//
// The read path — the Query surface (Run, Iter, Collect, Count,
// CollectNearest), Len — is safe for many concurrent
// goroutines and never blocks on writers: each query runs against an
// immutable copy-on-write snapshot of the component directory, and the
// storage layer's epoch pins keep a snapshot's pages byte-stable until its
// last reader drains. Writers (InsertE, DeleteE, FlushE) serialize among
// themselves. The component merges — the carries — run inside the InsertE
// that fills the insert buffer (see CompactionStats), and readers go on
// beside them.
type Dynamic struct {
	handle // a file-backed index saves its state and logs its mutations in fb
	inner  *logmethod.Tree
	wmu    sync.Mutex // serializes writer transaction brackets
}

// CompactionStats counts the dynamic index's component merges since it was
// created or opened, beside the storage layer's snapshot-epoch state. A
// merge is a carry, run by the insert that fills the buffer. Write
// amplification is measured in items: every item the merges rewrote, over
// every item they newly absorbed from the buffer — the logarithmic
// method's rebuild factor, observed rather than derived.
type CompactionStats struct {
	MergesCompleted uint64 // carries
	// MergesAborted reads 0: a carry commits with the mutation that runs
	// it or fails with it. The field stays because the benchmark harness
	// reports it.
	MergesAborted  uint64
	GCRebuilds     uint64 // rebuilds a delete triggered once half the stored items were dead
	PagesRewritten uint64 // pages of the levels the carries built
	ItemsMerged    uint64 // every item a carry took: the buffer's and the replaced levels', tombstoned ones included
	ItemsAbsorbed  uint64 // of those, the buffer's: the items new to the levels
	// WriteAmplification is ItemsMerged / ItemsAbsorbed (0 before the
	// first merge).
	WriteAmplification float64

	// Epoch, PinnedPages and SnapshotReaders mirror the backend's
	// SnapshotStats at collection time.
	Epoch           uint64
	PinnedPages     int
	SnapshotReaders int
}

// NewDynamic creates an empty dynamic index on a fresh in-memory
// simulator. opts may be nil.
func NewDynamic(opts *Options) *Dynamic {
	o := opts.normalized()
	d := &Dynamic{handle: memHandle(o)}
	d.inner = logmethod.New(d.pager, o.bulkOptions(), 0)
	return d
}

// Close persists a file-backed index in place and closes the backend: the
// state is saved and the file's tail moved into its holes as Sync does it,
// then the backend checkpoints and truncates — a crash anywhere inside
// Close reopens to the last acknowledged mutation. Using the index after
// Close is invalid. Closing twice is a no-op.
func (d *Dynamic) Close() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.close(d.saveAndSettle)
}

// mutate runs fn as one transaction (see transact), serialized against
// every other writer.
func (d *Dynamic) mutate(m *logmethod.Mutation, fn func()) error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if d.closed {
		return fmt.Errorf("prtree: index is closed")
	}
	return d.transact(m, fn)
}

// transact runs fn inside one backend transaction and, on a file-backed
// index, records in the same transaction what fn did. The caller holds
// wmu.
//
// m is fn's change as a logical record: a change to the insert buffer or
// the tombstone set alone commits as that record's note and nothing else —
// no page written, one log fsync — and is re-applied from the log if the
// process dies before the next save. The full state — directory blob and
// the state pages its records overflow into, rewritten by logmethod's
// SaveState — is saved instead when fn changed the level directory (it
// freed the pages the committed state points at, so the swap must commit
// with it), and when m is nil: the caller has no record to offer (a flush,
// recovery's re-apply, a Settle) or wants the save itself (Sync, Close). A
// save is followed by logmethod.SavedNote, which makes every earlier note
// history.
func (d *Dynamic) transact(m *logmethod.Mutation, fn func()) error {
	return d.txn(fn, func() error {
		if d.fb == nil {
			return nil
		}
		if changed := d.inner.TakeDirectoryChanged(); changed || m == nil {
			d.io.SetMeta(d.inner.SaveState(d.io))
			d.fb.Note(logmethod.SavedNote())
		} else {
			d.fb.Note(m.Note())
		}
		return nil
	})
}

// InsertE adds an item (amortized O((log_{M/B} N)(log2 N)/B) block I/Os)
// and returns the transaction error, if any. On a durable backend the
// insert — including any component rebuild the logarithmic method
// triggers — commits as one transaction.
//
// On a file-backed index an insert that only appends to the buffer — every
// one but the insert that brings BufferLen() up to BufferCap() — is durable
// as one small record in the write-ahead log and one fsync of it; no page
// is written. The state is saved by the insert that fills the buffer and
// carries, together with the new level. After a crash
// OpenDynamic re-applies the logged inserts to the last saved state.
//
// An item whose rectangle is not valid (see BulkLoad) is refused with an
// error and nothing is logged.
func (d *Dynamic) InsertE(it Item) error {
	if !it.Rect.Valid() {
		return fmt.Errorf("prtree: dynamic insert: item %d has invalid rectangle %v", it.ID, it.Rect)
	}
	if err := d.mutate(&logmethod.Mutation{Item: it}, func() { d.inner.Insert(it) }); err != nil {
		return fmt.Errorf("prtree: dynamic insert: %w", err)
	}
	return nil
}

// DeleteE removes an item by (rect, id), reporting success and the
// transaction error, if any. One transaction like InsertE, and logged like
// it on a file-backed index: a delete commits as one log record unless it
// triggers the tombstone rebuild, which saves the state. Deleting an item
// that is not there is logged too, and re-applies as the no-op it was.
func (d *Dynamic) DeleteE(it Item) (bool, error) {
	var ok bool
	if err := d.mutate(&logmethod.Mutation{Delete: true, Item: it}, func() { ok = d.inner.Delete(it) }); err != nil {
		return false, fmt.Errorf("prtree: dynamic delete: %w", err)
	}
	return ok, nil
}

// Query reports every live item intersecting q to fn and returns the
// query's node visits: Run(Window(q), fn) with its stats. It and Search
// remain only for the benchmark harness, their last caller, and go when
// the harness moves to the Query surface.
func (d *Dynamic) Query(q Rect, fn func(Item) bool) QueryStats {
	_, st, _ := run(d.exec(), Window(q), fn)
	return st
}

// Search returns all live items intersecting q: Collect(Window(q)). See
// Query.
func (d *Dynamic) Search(q Rect) []Item {
	out, _ := d.Collect(Window(q))
	return out
}

// Len returns the number of live items.
func (d *Dynamic) Len() int { return d.inner.Len() }

// BufferLen returns the number of items in the insert buffer (the
// un-merged component the logarithmic method fills first).
func (d *Dynamic) BufferLen() int { return d.inner.BufferLen() }

// BufferCap returns the insert buffer's capacity as the index stands: as
// many items as the levels hold, never fewer than Base() and never more
// than 16 × Base(). The insert that fills the buffer merges it into the
// levels.
func (d *Dynamic) BufferCap() int { return d.inner.BufferCap() }

// Base returns the logarithmic method's component base, one leaf's worth
// of items: level i holds at most Base()<<i of them.
func (d *Dynamic) Base() int { return d.inner.Base() }

// LevelSizes returns the item count of each component level, smallest
// first; empty slots are 0.
func (d *Dynamic) LevelSizes() []int { return d.inner.LevelSizes() }

// FlushE compacts the structure into a single static PR-tree, as one
// committed transaction on a durable backend.
func (d *Dynamic) FlushE() error {
	if err := d.mutate(nil, func() { d.inner.Flush() }); err != nil {
		return fmt.Errorf("prtree: dynamic flush: %w", err)
	}
	return nil
}

// CompactionStats returns the merge counters plus the storage layer's
// snapshot-epoch state. Safe to call while queries and mutations run.
func (d *Dynamic) CompactionStats() CompactionStats {
	m := d.inner.MergeStats()
	snap := d.io.SnapshotStats()
	st := CompactionStats{
		MergesCompleted: m.Merges,
		GCRebuilds:      m.GCRebuilds,
		PagesRewritten:  m.PagesRewritten,
		ItemsMerged:     m.ItemsMerged,
		ItemsAbsorbed:   m.ItemsAbsorbed,
		Epoch:           snap.Epoch,
		PinnedPages:     snap.PinnedPages,
		SnapshotReaders: snap.Readers,
	}
	if m.ItemsAbsorbed > 0 {
		st.WriteAmplification = float64(m.ItemsMerged) / float64(m.ItemsAbsorbed)
	}
	return st
}
