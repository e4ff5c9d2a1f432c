package storage

// Backend is the one storage contract every tree runs on: a store of
// fixed-size pages addressed by PageID, with allocation, block-granular
// reads and writes, an opaque superblock metadata blob, transaction and
// snapshot hooks, durability, and the store's own block-I/O counters. The
// in-memory Disk simulator (the paper's measurement device), the
// file-backed page store (FileBackend) and the Faulty decorator all
// implement it — a store implements the hooks it has
// no use for as no-ops — so the same worst-case-optimal tree serves
// simulated and persistent storage without touching the algorithms. A
// decorator implements the whole interface; one that embeds a Backend
// forwards every method it does not override, transactions and snapshots
// included.
//
// Contracts shared by all implementations:
//
//   - ReadNoCopy is the one counted demand read: every store counts one
//     read per ReadNoCopy and one write per page a Write stores. Alloc,
//     Free and PeekNoCopy are not I/O and are never counted, and neither
//     is anything a store does on its own behalf (a log append, a header
//     rewrite).
//   - ReadNoCopy lends bytes the caller treats as read-only, readable
//     until Close: the store's own page where it has one (a Disk's slice,
//     a mapped view), which shows a later Write, or else a private copy,
//     which does not. PeekNoCopy is the same, uncounted, for test
//     assertions and open-time sanity checks, never algorithm code.
//   - Alloc returns a zeroed page; the subsequent Write is the I/O.
//   - Write may pass fewer than BlockSize bytes for a page; the page tail
//     is untouched. A page is in the store when Write returns: nothing
//     waits for a later call to write it.
//   - Write of several pages stores them in consecutive pages, as that
//     many Writes would; the pages are fresh from Alloc, so a short one's
//     tail reads zeros.
//   - Pages must have a single writer at a time and must not be accessed
//     after Free; allocation, Free, Meta and SetMeta are safe for
//     concurrent use, and concurrent readers of distinct or immutable
//     pages are always safe.
//   - Sync makes all written pages and the metadata blob durable (a no-op
//     for memory-only backends). Close syncs and releases the resources;
//     a closed backend must not be used again.
//   - A durable store's first failed write, truncate or fsync ends it with
//     its error, which Commit and Sync return; it persists nothing more,
//     and its Close writes nothing and returns nil.
type Backend interface {
	// BlockSize returns the page size in bytes.
	BlockSize() int
	// NumPages returns the number of pages ever allocated, including
	// freed ones.
	NumPages() int
	// PagesInUse returns allocated minus freed pages.
	PagesInUse() int
	// Alloc reserves a zeroed page and returns its id.
	Alloc() PageID
	// Free returns a page to the allocator.
	Free(id PageID)
	// ReadNoCopy returns the page contents, read-only, counting one block
	// read.
	ReadNoCopy(id PageID) []byte
	// PeekNoCopy returns the page contents without counting I/O.
	PeekNoCopy(id PageID) []byte
	// Write stores pages[i] into page id+i. No page may exceed BlockSize;
	// a shorter one leaves its page's tail untouched. A durable store
	// writes a run of consecutive pages with one write. A failed write is
	// lost.
	Write(id PageID, pages ...[]byte)
	// SetMeta replaces the backend's superblock metadata blob (the tree
	// root descriptor for persistent backends).
	SetMeta(meta []byte)
	// Meta returns the current metadata blob (nil when unset).
	Meta() []byte

	// Begin opens a transaction. Mutation paths (a dynamic index's
	// mutations, a bulk load) bracket their page writes with Begin and
	// Commit so a durable store can make the whole batch atomic: after
	// Commit returns the batch survives a crash, and a crash before Commit
	// rolls the store back to the previous committed state on reopen.
	// Transactions do not nest. A store without durability does nothing.
	Begin()
	// Commit atomically and durably applies everything since Begin, or
	// returns the error that ended the store.
	Commit() error
	// Rollback declares the store done: a transaction did not commit (its
	// Commit failed, or the change panicked). It restores nothing; the
	// owner may only read the store or Close it, and a durable store's
	// Close then writes nothing, so the next open recovers the last
	// commit; one that a failure ended writes nothing here either. A store
	// without durability does nothing.
	Rollback()

	// SnapshotEnter begins a snapshot read and returns the epoch token
	// that must be passed to SnapshotLeave. While any reader is inside
	// the bracket, pages passed to Free are retired rather than recycled:
	// they join the durable freelist as usual (so the committed on-disk
	// state never leaks them across a crash), but Alloc refuses to hand
	// them out again until every reader that might still hold a reference
	// has left. The effect is copy-on-write at page granularity — a writer
	// running concurrently with readers always allocates fresh or
	// long-drained pages, never a page a reader can still see — without a
	// second allocator or an undo log. Pins live only in memory: a restart
	// has no readers, so recovery sees the plain freelist. A store whose
	// pages no reader shares across a swap does nothing.
	SnapshotEnter() uint64
	// SnapshotLeave ends the snapshot read begun by the SnapshotEnter that
	// returned epoch. Pins that no remaining reader can reference are
	// released.
	SnapshotLeave(epoch uint64)
	// SnapshotAdvance moves to the next epoch. A writer calls it once it
	// has published a new state and freed the pages of the one it
	// replaced, so those pages are pinned only by the readers that entered
	// before the swap; readers entering after the call never pin them.
	SnapshotAdvance()
	// SnapshotStats reports the current epoch, reader and pin counts.
	SnapshotStats() SnapshotStats

	// Stats returns the store's cumulative demand block I/O (see the
	// counting contract above). The counters are atomic: Stats and
	// ResetStats are safe while concurrent queries drive the store.
	Stats() Stats
	// ResetStats zeroes the counters.
	ResetStats()

	// Sync flushes pages and metadata to stable storage, or returns the
	// error that ended the store.
	Sync() error
	// Close syncs and releases the backend; after Rollback it only
	// releases it. Closing twice is a no-op.
	Close() error
}

// Compile-time interface conformance.
var (
	_ Backend = (*Disk)(nil)
	_ Backend = (*FileBackend)(nil)
	_ Backend = (*Faulty)(nil)
)

// AsFile returns b as the page file it is, or (nil, false) for any other
// store, so tooling can reach file-only surface (fsck, recovery reporting,
// WAL stats) without widening the Backend interface.
func AsFile(b Backend) (*FileBackend, bool) {
	fb, ok := b.(*FileBackend)
	return fb, ok
}
