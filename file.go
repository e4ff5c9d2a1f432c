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

// Create makes a new (or truncates an existing) index file at path and
// returns an empty file-backed tree on it, which owns no page. Fill it
// with BulkLoad; Close (or Sync) persists the tree in place, and Open
// reopens it with zero rebuild work.
func Create(path string, opts *Options) (*Tree, error) {
	o := opts.normalized()
	if err := storage.RemoveScratch(path); err != nil {
		return nil, fmt.Errorf("prtree: create %s: %w", path, err)
	}
	fb, err := storage.CreateFile(path, o.BlockSize)
	if err != nil {
		return nil, fmt.Errorf("prtree: create %s: %w", path, err)
	}
	dev := storage.Backend(fb)
	if o.WrapBackend != nil {
		dev = o.WrapBackend(dev)
	}
	pager := storage.NewPager(dev, o.CacheCapacity)
	inner := rtree.New(pager, rtree.Config{Fanout: o.Fanout})
	t := &Tree{
		inner: inner, pager: pager, io: dev, fb: fb, bopts: o.bulkOptions(), path: path,
		scratch: storage.NewScratch(path, fb.BlockSize()),
	}
	if err := t.Sync(); err != nil {
		fb.Abandon()
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
	expect := 0
	if opts != nil {
		expect = opts.BlockSize
	}
	o := opts.normalized()
	if err := storage.RemoveScratch(path); err != nil {
		return nil, fmt.Errorf("prtree: open %s: %w", path, err)
	}
	fb, err := storage.OpenFile(path, expect)
	if err != nil {
		return nil, fmt.Errorf("prtree: %w", err)
	}
	dev := storage.Backend(fb)
	if o.WrapBackend != nil {
		dev = o.WrapBackend(dev)
	}
	pager := storage.NewPager(dev, o.CacheCapacity)
	inner, err := rtree.OpenFromMeta(pager, fb.Meta())
	if err != nil {
		// Abandon, not Close: a failed open must not rewrite the header or
		// truncate a file it could not validate.
		fb.Abandon()
		return nil, fmt.Errorf("prtree: open %s: %w", path, err)
	}
	bopts := o.bulkOptions()
	bopts.Fanout = inner.Config().Fanout
	return &Tree{
		inner: inner, pager: pager, io: dev, fb: fb, bopts: bopts, path: path,
		scratch:  storage.NewScratch(path, fb.BlockSize()),
		recovery: fb.RecoveryInfo(),
	}, nil
}

// Path returns the tree's index file path, or "" for non-file backends.
func (t *Tree) Path() string { return t.path }

// Recovery reports what crash recovery did when this tree was opened:
// nil for a cleanly closed (or non-file) index, a populated RecoveryInfo
// when Open found work in the write-ahead log — a committed state to
// adopt, uncommitted tails to discard, or a torn tail to truncate. The
// index is fully consistent either way; the report exists for operators
// and tests that care whether the previous process died.
func (t *Tree) Recovery() *RecoveryInfo { return t.recovery }

// CheckPages verifies the checksum trailer of every in-use page of a
// file-backed tree without panicking, returning the first mismatch as an
// error wrapping ErrChecksum (nil for clean or non-file trees). This is
// the scrub behind prtool fsck; normal reads verify checksums inline and
// panic on a mismatch instead.
func (t *Tree) CheckPages() error {
	if t.closed {
		return fmt.Errorf("prtree: CheckPages on closed tree")
	}
	if t.fb == nil {
		return nil
	}
	if err := t.fb.Fsck(); err != nil {
		return fmt.Errorf("prtree: %w", err)
	}
	return nil
}

// PageCounts reports the backing file's page-slot total and how many of
// those slots the tree currently references (the rest sit on the free
// list, available for reuse without growing the file). Both are zero for
// non-file backends. A freshly created index that was bulk-loaded once
// reports total == inUse == Nodes().
func (t *Tree) PageCounts() (total, inUse int) { return filePageCounts(t.fb) }

// filePageCounts is PageCounts for either kind of handle.
func filePageCounts(fb *storage.FileBackend) (total, inUse int) {
	if fb == nil {
		return 0, 0
	}
	return fb.NumPages(), fb.PagesInUse()
}

// Sync persists the tree's current state — pages, allocator and metadata —
// through the backend (an fsync'd header rewrite for file-backed trees, a
// no-op for in-memory ones). The tree remains usable.
func (t *Tree) Sync() error {
	if t.closed {
		return fmt.Errorf("prtree: Sync on closed tree")
	}
	t.io.SetMeta(t.inner.EncodeMeta())
	if err := t.io.Sync(); err != nil {
		return fmt.Errorf("prtree: sync: %w", err)
	}
	return nil
}

// Close persists the tree (like Sync) and releases the backend. A
// file-backed tree closed cleanly reopens with Open; using the tree after
// Close is invalid. Closing twice is a no-op.
func (t *Tree) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.io.SetMeta(t.inner.EncodeMeta())
	if err := errors.Join(t.io.Close(), t.scratch.Close()); err != nil {
		return fmt.Errorf("prtree: close: %w", err)
	}
	return nil
}
