package storage

// Backend is the block-device seam every tree runs on: a store of
// fixed-size pages addressed by PageID, with allocation, block-granular
// reads and writes, an opaque superblock metadata blob, and durability
// hooks. The in-memory Disk simulator (the paper's measurement device),
// the file-backed page store (FileBackend) and the Counting decorator all
// implement it, so the same worst-case-optimal tree serves simulated,
// persistent and instrumented storage without touching the algorithms.
//
// Contracts shared by all implementations:
//
//   - Alloc returns a zeroed page and is not counted as I/O by decorators;
//     the subsequent Write is.
//   - Write may pass fewer than BlockSize bytes; the page tail is
//     untouched. Read copies at most BlockSize bytes into buf.
//   - ReadNoCopy returns bytes a caller must treat as read-only; the slice
//     stays valid until the page is freed or rewritten. PeekNoCopy is the
//     same without being counted by decorators — it exists for test
//     assertions and open-time sanity checks, never algorithm code.
//   - Pages must have a single writer at a time and must not be accessed
//     after Free; allocation, Free, Meta and SetMeta are safe for
//     concurrent use, and concurrent readers of distinct or immutable
//     pages are always safe.
//   - Sync makes all written pages and the metadata blob durable (a no-op
//     for memory-only backends). Close syncs and releases the resources;
//     a closed backend must not be used again.
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
	// Read copies page id into buf and returns the number of bytes copied.
	Read(id PageID, buf []byte) int
	// ReadNoCopy returns the page contents without copying (read-only).
	ReadNoCopy(id PageID) []byte
	// PeekNoCopy returns the page contents without counting I/O.
	PeekNoCopy(id PageID) []byte
	// Write stores data into page id. len(data) must not exceed BlockSize;
	// shorter data leaves the page tail untouched.
	Write(id PageID, data []byte)
	// SetMeta replaces the backend's superblock metadata blob (the tree
	// root descriptor for persistent backends).
	SetMeta(meta []byte)
	// Meta returns the current metadata blob (nil when unset).
	Meta() []byte
	// Sync flushes pages and metadata to stable storage.
	Sync() error
	// Close syncs and releases the backend.
	Close() error
}

// StableReader is the optional zero-copy capability of a backend that maps
// its own storage (FileBackend on Linux): a demand read (counted like Read)
// returning a view that stays valid, and coherent with every Write, until
// the backend is closed — no read buffer, no copy, no syscall. ok=false
// means the page has no stable view (it lies beyond the written extent) and
// the caller must fall back to Read.
type StableReader interface {
	ReadStable(id PageID) (data []byte, ok bool)
}

// Compile-time interface conformance.
var (
	_ Backend = (*Disk)(nil)
	_ Backend = (*FileBackend)(nil)
	_ Backend = (*Counting)(nil)
	_ Backend = (*Faulty)(nil)
	_ Backend = (*Scratch)(nil)

	_ Transactional = (*FileBackend)(nil)
	_ Transactional = (*Counting)(nil)
	_ Transactional = (*Faulty)(nil)

	_ StableReader = (*Counting)(nil) // and, on Linux, *FileBackend: filemap_linux.go

	_ Snapshotter = (*Disk)(nil)
	_ Snapshotter = (*FileBackend)(nil)
	_ Snapshotter = (*Counting)(nil)
	_ Snapshotter = (*Faulty)(nil)
)

// Transactional is the optional atomicity seam a Backend may implement.
// Mutation paths (a dynamic index's mutations, a bulk load) bracket their
// page writes with Begin/Commit so a durable backend can make the whole
// batch atomic:
// after Commit returns the mutation survives a crash, and a crash before
// Commit rolls the store back to the previous committed state on reopen.
// Rollback discards an open transaction in memory (e.g. on a mid-mutation
// panic). Backends without durability semantics simply don't implement
// it; use EnsureTransactional to call the hooks unconditionally.
type Transactional interface {
	// Begin opens a transaction. Transactions do not nest.
	Begin()
	// Commit atomically and durably applies everything since Begin.
	Commit() error
	// Rollback discards everything since Begin. Without an open
	// transaction it is a no-op.
	Rollback()
}

// nopTx is the Transactional no-op for backends without durability.
type nopTx struct{}

func (nopTx) Begin()        {}
func (nopTx) Commit() error { return nil }
func (nopTx) Rollback()     {}

// EnsureTransactional returns b's Transactional implementation, or a
// no-op one, so mutation paths can bracket writes without type checks.
// Decorators forward the interface (see Counting), so the check is on b
// itself, not the unwrapped chain.
func EnsureTransactional(b Backend) Transactional {
	if tx, ok := b.(Transactional); ok {
		return tx
	}
	return nopTx{}
}

// unwrapper is implemented by decorators (e.g. Counting) so helpers can
// reach the innermost backend.
type unwrapper interface{ Unwrap() Backend }

// AsFile unwraps decorators and returns the underlying FileBackend, or
// (nil, false) when the chain bottoms out elsewhere. It gives durability
// tooling (fsck, recovery reporting, WAL stats) access to file-only
// surface without widening the Backend interface.
func AsFile(b Backend) (*FileBackend, bool) {
	for {
		if fb, ok := b.(*FileBackend); ok {
			return fb, true
		}
		u, ok := b.(unwrapper)
		if !ok {
			return nil, false
		}
		b = u.Unwrap()
	}
}
