package prtree

import (
	"errors"
	"fmt"

	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// File-backed trees: Create a new index file, build into it with BulkLoad,
// Close to persist, Open to serve it again — in place.
//
// Durability rests on one invariant of the page store: a page reachable
// from the committed state is never written. A load writes its tree into
// fresh pages and one commit publishes it, so the write-ahead log holds
// NOTE, STATE and COMMIT records only, never a page image.

// handle is the storage an index stands on, shared by Tree and Dynamic:
// the store, the pager over it and, for an index file, the file itself and
// the scratch store its loads put their temporaries on. It opens, commits
// to and reports on that storage; the index on top says what a commit
// publishes.
type handle struct {
	io    storage.Backend      // the store, or what Options.WrapBackend made of it
	pager *storage.Pager       // the page cache over io
	fb    *storage.FileBackend // file-backed: the index file; nil otherwise
	// scratch holds the temporaries of loads and level builds a file-backed
	// index does not run in memory (see Tree.BulkLoad), kept for the
	// handle's lifetime so a carry pays no file create and delete; nil
	// otherwise.
	scratch  *storage.Scratch
	path     string // index file path; "" for non-file backends
	closed   bool
	recovery *storage.RecoveryInfo // what crash recovery did at open, if anything
}

// memHandle puts a pager on a fresh in-memory simulator.
func memHandle(o Options) handle {
	disk := storage.NewDisk(o.BlockSize)
	return handle{io: disk, pager: storage.NewPager(disk, o.CacheCapacity)}
}

// openFile assembles h on the index file at path: a new (or truncated)
// one when create is set, else the existing one, which storage.OpenFile
// recovers to its last commit (a non-zero opts.BlockSize must match it).
// A stale scratch file beside it goes first. build then puts the index on
// h's pager. If build fails the file is abandoned, not closed: a failed
// open must neither rewrite the header of a file it could not validate
// nor retire a log whose notes nobody applied.
func (h *handle) openFile(path string, opts *Options, create bool, build func(Options) error) error {
	op, expect := "open", 0
	if create {
		op = "create"
	} else if opts != nil {
		expect = opts.BlockSize
	}
	o := opts.normalized()
	if err := storage.RemoveScratch(path); err != nil {
		return fmt.Errorf("prtree: %s %s: %w", op, path, err)
	}
	var fb *storage.FileBackend
	var err error
	if create {
		fb, err = storage.CreateFile(path, o.BlockSize)
	} else {
		fb, err = storage.OpenFile(path, expect)
	}
	if err != nil {
		return fmt.Errorf("prtree: %w", err)
	}
	h.fb, h.io, h.path = fb, fb, path
	if o.WrapBackend != nil {
		h.io = o.WrapBackend(h.io)
	}
	h.pager = storage.NewPager(h.io, o.CacheCapacity)
	h.scratch = storage.NewScratch(path, fb.BlockSize())
	if ri := fb.RecoveryInfo(); ri != nil {
		info := *ri // a copy: OpenDynamic adds ReappliedNotes to it
		h.recovery = &info
	}
	if err := build(o); err != nil {
		fb.Abandon()
		return fmt.Errorf("prtree: %s %s: %w", op, path, errors.Join(err, h.scratch.Close()))
	}
	return nil
}

// txn brackets a change in one backend transaction: Begin, run fn, let
// save stage what the commit publishes (its error rolls back), Commit. On
// a durable backend the change is atomic — after Commit it survives a
// crash; a panic out of fn (including an injected fault) rolls the
// backend's in-memory state back to the last committed transaction before
// re-panicking, so the on-disk index recovers cleanly even though the
// value on top is no longer usable. On a backend without durability the
// brackets do nothing.
func (h *handle) txn(fn func(), save func() error) error {
	h.io.Begin()
	done := false
	defer func() {
		if !done {
			h.io.Rollback()
		}
	}()
	fn()
	if err := save(); err != nil {
		return err
	}
	done = true
	if err := h.io.Commit(); err != nil {
		// The backend rolls back to the committed state; the index's
		// in-memory structure has already changed and must be reopened.
		h.io.Rollback()
		return err
	}
	return nil
}

// sync runs save, then the backend's checkpoint.
func (h *handle) sync(save func() error) error {
	if h.closed {
		return fmt.Errorf("prtree: Sync on closed index")
	}
	err := save()
	if err == nil {
		err = h.io.Sync()
	}
	if err != nil {
		return fmt.Errorf("prtree: sync: %w", err)
	}
	return nil
}

// close runs save, then closes the backend and the scratch store. Closing
// twice is a no-op.
func (h *handle) close(save func() error) error {
	if h.closed {
		return nil
	}
	h.closed = true
	if err := errors.Join(save(), h.io.Close(), h.scratch.Close()); err != nil {
		return fmt.Errorf("prtree: close: %w", err)
	}
	return nil
}

// Path returns the index file path, or "" for non-file backends.
func (h *handle) Path() string { return h.path }

// Recovery reports what crash recovery did when this index was opened:
// nil for a cleanly closed (or non-file) index, a populated RecoveryInfo
// when Open or OpenDynamic found work in the write-ahead log — a committed
// state to adopt, uncommitted tails to discard, a torn tail to truncate
// or, for a Dynamic, mutations logged after its last saved state, which
// ReappliedNotes counts. The index is fully consistent either way; the
// report exists for operators and tests that care whether the previous
// process died.
func (h *handle) Recovery() *RecoveryInfo { return h.recovery }

// CheckPages verifies the checksum trailer of every in-use page of a
// file-backed index without panicking, returning the first mismatch as an
// error wrapping ErrChecksum (nil for clean or non-file indexes). This is
// the scrub behind prtool fsck; normal reads verify checksums inline and
// panic on a mismatch instead.
func (h *handle) CheckPages() error {
	if h.closed {
		return fmt.Errorf("prtree: CheckPages on closed index")
	}
	if h.fb == nil {
		return nil
	}
	if err := h.fb.Fsck(); err != nil {
		return fmt.Errorf("prtree: %w", err)
	}
	return nil
}

// PageCounts reports the backing file's page-slot total and how many of
// those slots the index currently references (the rest sit on the free
// list, available for reuse without growing the file). Both are zero for
// non-file backends. A freshly created Tree that was bulk-loaded once
// reports total == inUse == Nodes().
func (h *handle) PageCounts() (total, inUse int) {
	if h.fb == nil {
		return 0, 0
	}
	return h.fb.NumPages(), h.fb.PagesInUse()
}

// IOStats returns cumulative block reads/writes on the index's backend
// plus, for a file-backed index, its scratch store — so build I/O is the
// same quantity on every backend. The counters are atomic: IOStats is safe
// to call while queries run.
func (h *handle) IOStats() IOStats { return h.io.Stats().Add(h.scratch.Stats()) }

// ResetIOStats zeroes the I/O counters (e.g. before measuring a query).
// Like IOStats it is safe to call while queries run; in-flight queries
// simply split their I/O across the two measurement intervals.
func (h *handle) ResetIOStats() {
	h.io.ResetStats()
	h.scratch.ResetStats()
}

// Create makes a new (or truncates an existing) index file at path and
// returns an empty file-backed tree on it, which owns no page. Fill it
// with BulkLoad; Close (or Sync) persists the tree in place, and Open
// reopens it with zero rebuild work.
func Create(path string, opts *Options) (*Tree, error) {
	t := new(Tree)
	err := t.openFile(path, opts, true, func(o Options) error {
		t.inner = rtree.New(t.pager, rtree.Config{Fanout: o.Fanout})
		t.bopts = o.bulkOptions()
		return t.Sync()
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Open reopens the index file at path. The tree's shape and configuration
// come from the file; opts controls the page cache, and a non-zero
// opts.BlockSize is validated against the file's block size (mismatch is a
// wrapped ErrBlockSizeMismatch). Corrupt files fail with wrapped,
// inspectable errors — see ErrBadMagic, ErrBadVersion and ErrTruncated —
// never a panic.
func Open(path string, opts *Options) (*Tree, error) {
	t := new(Tree)
	err := t.openFile(path, opts, false, func(o Options) (err error) {
		if t.inner, err = rtree.OpenFromMeta(t.pager, t.fb.Meta()); err != nil {
			return err
		}
		t.bopts = o.bulkOptions()
		t.bopts.Fanout = t.inner.Config().Fanout
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// saveMeta stages the tree's metadata record for the next commit or
// checkpoint.
func (t *Tree) saveMeta() error {
	t.io.SetMeta(t.inner.EncodeMeta())
	return nil
}

// Sync persists the tree's current state — pages, allocator and metadata —
// through the backend (an fsync'd header rewrite for file-backed trees, a
// no-op for in-memory ones). The tree remains usable.
func (t *Tree) Sync() error { return t.sync(t.saveMeta) }

// Close persists the tree (like Sync) and releases the backend. A
// file-backed tree closed cleanly reopens with Open; using the tree after
// Close is invalid. Closing twice is a no-op.
func (t *Tree) Close() error { return t.close(t.saveMeta) }
