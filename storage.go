package prtree

import "prtree/internal/storage"

// The storage seam, re-exported: Backend is the block-device interface
// every tree runs on, and PageID addresses one block. They alias the
// internal types, so a decorator written against these names (see
// Options.WrapBackend) satisfies the interface the internal pager, loaders
// and trees consume.

// Backend is a block store, the one storage contract; see
// Options.WrapBackend. Implementations must honor the contracts documented
// on the interface: zeroed pages from Alloc, block-granular reads/writes, a
// superblock metadata blob, transaction and snapshot hooks (no-ops where a
// store has no use for them), counters of the store's own block I/O, and
// Sync/Close durability hooks.
type Backend = storage.Backend

// PageID identifies one block of a Backend.
type PageID = storage.PageID

// DefaultBlockSize is the paper's disk block size: 4 KB, which holds 113
// 36-byte rectangle entries.
const DefaultBlockSize = storage.DefaultBlockSize

// CacheStats reports the page cache's counters; see Tree.CacheStats.
type CacheStats = storage.CacheStats

// Index-file corruption sentinels, matchable through the errors Open
// returns with errors.Is.
var (
	// ErrBadMagic reports a file that is not a prtree index file.
	ErrBadMagic = storage.ErrBadMagic
	// ErrBadVersion reports an index file written by an unknown format
	// version.
	ErrBadVersion = storage.ErrBadVersion
	// ErrBlockSizeMismatch reports opening an index file with
	// Options.BlockSize different from the file's.
	ErrBlockSizeMismatch = storage.ErrBlockSizeMismatch
	// ErrTruncated reports an index file shorter than its header's
	// recorded geometry requires.
	ErrTruncated = storage.ErrTruncated
	// ErrCorrupt reports an index file whose header or freelist
	// contradicts itself.
	ErrCorrupt = storage.ErrCorrupt
	// ErrChecksum reports a page whose stored CRC32C does not match its
	// contents — latent sector corruption caught at read time. CheckPages
	// returns it wrapped; the read path panics with it.
	ErrChecksum = storage.ErrChecksum
	// ErrWALCorrupt reports a write-ahead log Open cannot trust: records
	// with valid checksums but invalid semantics. (A torn tail — invalid
	// framing or checksum at the end of the log — is a normal crash
	// artifact, silently truncated, not this error.)
	ErrWALCorrupt = storage.ErrWALCorrupt
)

// RecoveryInfo describes what crash recovery did while opening an index
// file; see Tree.Recovery.
type RecoveryInfo = storage.RecoveryInfo
