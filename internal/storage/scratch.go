package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Scratch is the private temporary store of one open index handle: an
// unjournaled page file beside the index (ScratchPath) that holds what a
// bulk load needs only while it runs — the input ItemFile, the external
// sort's runs, the grid partitions, every inter-stage file — so the index
// file receives nothing but finished tree pages.
//
// It is deliberately everything the FileBackend is not. There is no header,
// no checksum trailer, no write-ahead log and no fsync: the content is
// worthless after a crash, and a leftover file is simply deleted by the next
// open (RemoveScratch). The free list lives in memory and Free makes a page
// reusable immediately, so the file stays about as large as the biggest set
// of temporaries alive at once. The file is created by the first Use and
// removed — closed first, so the order also holds where an open file cannot
// be unlinked — by Close, or as soon as a load that failed leaves Use.
//
// A Scratch counts its block reads and writes like every Backend, so a
// handle reports build I/O as index I/O plus scratch I/O. Its page
// operations are safe for concurrent use under the Backend contract (the
// sort workers of one load run at once). All methods except the Backend
// page operations accept a nil receiver, which stands for "no scratch store:
// temporaries share the tree's backend" — the in-memory handles.
type Scratch struct {
	path      string
	blockSize int

	reads  atomic.Uint64
	writes atomic.Uint64

	mu    sync.RWMutex
	f     *os.File // nil before the first Use, and again once the file is removed
	valid []int32  // bytes written to each page since its last Alloc
	free  []PageID
}

// ScratchPath returns the scratch file path of the index file at indexPath.
func ScratchPath(indexPath string) string { return indexPath + ".scratch" }

// RemoveScratch deletes the scratch file a killed process left beside the
// index file at indexPath. A missing file is not an error.
func RemoveScratch(indexPath string) error {
	if err := os.Remove(ScratchPath(indexPath)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("storage: removing stale scratch file: %w", err)
	}
	return nil
}

// NewScratch returns the scratch store of the index file at indexPath. It
// touches nothing on disk; the file appears with the first Use.
func NewScratch(indexPath string, blockSize int) *Scratch {
	return &Scratch{path: ScratchPath(indexPath), blockSize: blockSize}
}

// Or returns the store as a Backend, or b for the nil store.
func (s *Scratch) Or(b Backend) Backend {
	if s == nil {
		return b
	}
	return s
}

// Use brackets one bulk load: fn may allocate pages on the store, and must
// have freed them when it returns. A load that returns an error or panics
// may have leaked pages, so the file is removed as it leaves; a successful
// load keeps it for the next one. Loads on one store do not overlap (the
// sort workers inside one may). The error is fn's, or the failure to create
// the file. On the nil store Use just runs fn.
func (s *Scratch) Use(fn func() error) (err error) {
	if s == nil {
		return fn()
	}
	if err := s.open(); err != nil {
		return err
	}
	failed := true // until fn returns: a panic leaves it set
	defer func() {
		if failed {
			s.Close() // best effort: the next open deletes what remains
		}
	}()
	err = fn()
	failed = err != nil
	return err
}

// open creates the file unless a successful load left it in place.
func (s *Scratch) open() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		return nil
	}
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: creating scratch file: %w", err)
	}
	s.f = f
	return nil
}

// removeLocked closes and deletes the file and forgets every page.
func (s *Scratch) removeLocked() error {
	s.valid, s.free = nil, nil
	if s.f == nil {
		return nil
	}
	cerr := s.f.Close()
	s.f = nil
	if err := os.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("storage: removing scratch file: %w", err)
	}
	if cerr != nil {
		return fmt.Errorf("storage: closing scratch file: %w", cerr)
	}
	return nil
}

// Close implements Backend: it removes the file. The store stays usable —
// the next Use creates a fresh file — so one handle can close it after a
// failed load and again when the handle itself closes.
func (s *Scratch) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.removeLocked()
}

// Stats implements Backend: the cumulative block I/O on the store (zero
// for nil).
func (s *Scratch) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{Reads: s.reads.Load(), Writes: s.writes.Load()}
}

// ResetStats implements Backend.
func (s *Scratch) ResetStats() {
	if s == nil {
		return
	}
	s.reads.Store(0)
	s.writes.Store(0)
}

// BlockSize implements Backend.
func (s *Scratch) BlockSize() int { return s.blockSize }

// NumPages implements Backend: the pages of the current file.
func (s *Scratch) NumPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.valid)
}

// PagesInUse implements Backend. It is zero whenever no load is running.
func (s *Scratch) PagesInUse() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.valid) - len(s.free)
}

// Alloc implements Backend. A recycled page reads as zeros again without
// being rewritten: the store remembers how much of each page is valid.
func (s *Scratch) Alloc() PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		panic("storage: scratch store used outside Use")
	}
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		s.valid[id] = 0
		return id
	}
	s.valid = append(s.valid, 0)
	return PageID(len(s.valid) - 1)
}

// Free implements Backend: the page is reusable by the very next Alloc.
func (s *Scratch) Free(id PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkLocked(id)
	s.free = append(s.free, id)
}

func (s *Scratch) checkLocked(id PageID) {
	if s.f == nil {
		panic("storage: scratch store used outside Use")
	}
	if int(id) >= len(s.valid) {
		panic(fmt.Sprintf("storage: scratch page %d out of range (have %d pages)", id, len(s.valid)))
	}
}

func (s *Scratch) offset(id PageID) int64 { return int64(id) * int64(s.blockSize) }

// Read implements Backend, counting one block read.
func (s *Scratch) Read(id PageID, buf []byte) int {
	s.reads.Add(1)
	return s.read(id, buf)
}

func (s *Scratch) read(id PageID, buf []byte) int {
	if len(buf) > s.blockSize {
		buf = buf[:s.blockSize]
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.checkLocked(id)
	n := min(len(buf), int(s.valid[id]))
	if _, err := s.f.ReadAt(buf[:n], s.offset(id)); err != nil && err != io.EOF {
		panic(fmt.Sprintf("storage: reading scratch page %d: %v", id, err))
	}
	clear(buf[n:])
	return len(buf)
}

// ReadNoCopy implements Backend, counting one block read. Like the
// FileBackend it returns a private copy.
func (s *Scratch) ReadNoCopy(id PageID) []byte {
	buf := make([]byte, s.blockSize)
	s.Read(id, buf)
	return buf
}

// PeekNoCopy implements Backend (uncounted).
func (s *Scratch) PeekNoCopy(id PageID) []byte {
	buf := make([]byte, s.blockSize)
	s.read(id, buf)
	return buf
}

// Write implements Backend, counting one block write.
func (s *Scratch) Write(id PageID, data []byte) {
	if len(data) > s.blockSize {
		panic(fmt.Sprintf("storage: write of %d bytes exceeds block size %d", len(data), s.blockSize))
	}
	s.writes.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.checkLocked(id)
	if _, err := s.f.WriteAt(data, s.offset(id)); err != nil {
		panic(fmt.Sprintf("storage: writing scratch page %d: %v", id, err))
	}
	// Pages have a single writer, so this element has none but us; Alloc,
	// which moves the slice, is excluded by the read lock.
	if n := int32(len(data)); n > s.valid[id] {
		s.valid[id] = n
	}
}

// SetMeta implements Backend. A scratch store has no superblock.
func (s *Scratch) SetMeta([]byte) {}

// Meta implements Backend: always nil.
func (s *Scratch) Meta() []byte { return nil }

// Sync implements Backend as a no-op: scratch pages are never made durable.
func (s *Scratch) Sync() error { return nil }

// Begin, Commit and Rollback implement Backend as no-ops, for the same
// reason: a crash makes the whole store worthless.
func (s *Scratch) Begin()        {}
func (s *Scratch) Commit() error { return nil }
func (s *Scratch) Rollback()     {}

// The snapshot hooks implement Backend as no-ops: a temporary belongs to
// the one load that made it, and no reader shares it.
func (s *Scratch) SnapshotEnter() uint64        { return 0 }
func (s *Scratch) SnapshotLeave(uint64)         {}
func (s *Scratch) SnapshotAdvance()             {}
func (s *Scratch) SnapshotStats() SnapshotStats { return SnapshotStats{} }
