// Package storage simulates the block-granular disk that the paper's
// experiments run on: a store of fixed-size pages with read/write counters,
// an LRU page cache with pinning (the paper caches all internal R-tree
// nodes), and sequential files of fixed-size records (the subset of TPIE
// that the original implementation used).
//
// All state lives in memory — the substitution for the paper's physical
// SCSI disk — but every access is performed and counted at block
// granularity, so the measured I/O counts follow the same accounting as the
// paper's.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultBlockSize is the paper's disk block size: 4 KB, which holds 113
// 36-byte rectangle entries.
const DefaultBlockSize = 4096

// PageID identifies a disk page. NilPage is the invalid sentinel.
type PageID uint32

// NilPage is the invalid page identifier.
const NilPage PageID = ^PageID(0)

// Stats counts block-granular I/O operations. Reads and Writes follow the
// paper's demand accounting: they count only blocks an algorithm asked for.
type Stats struct {
	Reads  uint64 // blocks read on demand
	Writes uint64 // blocks written
	// PrefetchReads reads 0: the speculative read tier it counted is gone.
	// The field stays because the benchmark harness reports it.
	PrefetchReads uint64
}

// Total returns demand reads plus writes — the paper's block-I/O metric.
func (s Stats) Total() uint64 { return s.Reads + s.Writes }

// Add returns s plus t, component-wise: the total of two stores' counters.
func (s Stats) Add(t Stats) Stats {
	return Stats{Reads: s.Reads + t.Reads, Writes: s.Writes + t.Writes}
}

// Sub returns s minus t, component-wise. Useful for measuring an interval:
// capture stats before and after, then Sub.
func (s Stats) Sub(t Stats) Stats {
	return Stats{Reads: s.Reads - t.Reads, Writes: s.Writes - t.Writes}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d", s.Reads, s.Writes)
}

// Disk is a simulated block device: an array of blockSize-byte pages with
// an allocation freelist and I/O counters. The zero value is not usable;
// call NewDisk.
//
// A Disk is safe for concurrent use by multiple goroutines: allocation and
// the freelist are mutex-protected and the I/O counters are atomic, so
// concurrent producers (e.g. the parallel bulk-load pipeline's sort
// workers) see the same counter totals as a serial execution of the same
// operations. Individual pages are not synchronized — each page must have
// a single writer at a time, and a page's bytes must not be read after it
// is Freed; files uphold this by owning their pages.
type Disk struct {
	blockSize int

	mu    sync.RWMutex // guards pages, free and meta slice headers
	pages [][]byte
	free  freeHeap
	meta  []byte

	reads  atomic.Uint64
	writes atomic.Uint64

	epochPins // the snapshot hooks: epoch-pinned reclamation of freed pages
}

// NewDisk returns an empty disk with the given block size.
func NewDisk(blockSize int) *Disk {
	if blockSize <= 0 {
		panic("storage: block size must be positive")
	}
	return &Disk{blockSize: blockSize}
}

// BlockSize returns the page size in bytes.
func (d *Disk) BlockSize() int { return d.blockSize }

// Alloc reserves a page and returns its id. The page contents are zeroed.
// Allocation itself is not counted as I/O; the subsequent Write is. The
// lowest freed page is recycled first; freed pages pinned by an active
// snapshot reader (see Backend.SnapshotEnter) are skipped: their bytes may
// still be dereferenced, so the next one up is taken, or the disk extends.
func (d *Disk) Alloc() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.takeLowest(&d.free); ok {
		for j := range d.pages[id] {
			d.pages[id][j] = 0
		}
		return id
	}
	d.pages = append(d.pages, make([]byte, d.blockSize))
	return PageID(len(d.pages) - 1)
}

// Free returns a page to the freelist. Freeing is not counted as I/O.
// While snapshot readers are active the page is retired instead of
// recycled: it joins the freelist but Alloc withholds it until the
// readers that might still reference it drain.
func (d *Disk) Free(id PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkIDLocked(id)
	d.free.push(id)
	d.retire(id)
}

// page returns the backing slice of page id; the per-page slice never moves
// once allocated, so callers may use it after the lock is released under
// the single-writer / no-use-after-Free contract.
func (d *Disk) page(id PageID) []byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.checkIDLocked(id)
	return d.pages[id]
}

// Write stores data into page id, counting one block write. data must not
// exceed the block size; shorter data leaves the page tail untouched.
func (d *Disk) Write(id PageID, data []byte) {
	if len(data) > d.blockSize {
		panic(fmt.Sprintf("storage: write of %d bytes exceeds block size %d", len(data), d.blockSize))
	}
	copy(d.page(id), data)
	d.writes.Add(1)
}

// ReadNoCopy returns the page's backing slice without copying, counting one
// block read. The caller must treat the result as read-only; a later Write
// of the page shows through it.
func (d *Disk) ReadNoCopy(id PageID) []byte {
	d.reads.Add(1)
	return d.page(id)
}

// PeekNoCopy returns the page contents without counting I/O. It exists for
// test assertions; algorithm code must use ReadNoCopy.
func (d *Disk) PeekNoCopy(id PageID) []byte {
	return d.page(id)
}

// Stats implements Backend: the cumulative I/O counters.
func (d *Disk) Stats() Stats {
	return Stats{Reads: d.reads.Load(), Writes: d.writes.Load()}
}

// ResetStats implements Backend.
func (d *Disk) ResetStats() {
	d.reads.Store(0)
	d.writes.Store(0)
}

// NumPages returns the number of pages ever allocated (including freed ones).
func (d *Disk) NumPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages)
}

// PagesInUse returns allocated minus freed pages.
func (d *Disk) PagesInUse() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages) - len(d.free)
}

// SetMeta implements Backend: the blob lives in memory alongside the pages.
func (d *Disk) SetMeta(meta []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.meta = append(d.meta[:0], meta...)
}

// Meta implements Backend.
func (d *Disk) Meta() []byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.meta == nil {
		return nil
	}
	out := make([]byte, len(d.meta))
	copy(out, d.meta)
	return out
}

// Begin, Commit and Rollback implement Backend as no-ops: memory has no
// crash to make a batch atomic against.
func (d *Disk) Begin()        {}
func (d *Disk) Commit() error { return nil }
func (d *Disk) Rollback()     {}

// Sync implements Backend; memory is always "durable", so it is a no-op.
func (d *Disk) Sync() error { return nil }

// Close implements Backend as a no-op: a Disk holds no external resources.
func (d *Disk) Close() error { return nil }

func (d *Disk) checkIDLocked(id PageID) {
	if int(id) >= len(d.pages) {
		panic(fmt.Sprintf("storage: page %d out of range (have %d pages)", id, len(d.pages)))
	}
}
