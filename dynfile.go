package prtree

import (
	"fmt"

	"prtree/internal/logmethod"
	"prtree/internal/storage"
)

// File-backed dynamic indexes: CreateDynamic makes a new index file,
// InsertE/DeleteE commit each mutation durably (WAL-bracketed, like the
// static tree's updates), CloseDynamic-via-Close persists in place and
// OpenDynamic serves it again — including recovery from a crash at any
// point, background merges included.
//
// The on-disk format extends the static page file: the header's metadata
// blob holds the logarithmic method's component directory (one static
// PR-tree meta record per occupied level) and the heads of two chained
// state-page lists carrying the insert buffer and the tombstone set. The
// directory blob is staged inside the same transaction as the page writes
// of the mutation it describes, so a crash recovers either the whole old
// state or the whole new one — in particular, a crash while a background
// merge was mid-build recovers the pre-merge directory, and the merge's
// half-built pages are unreferenced garbage, never corruption.

// CreateDynamic makes a new (or truncates an existing) index file at path
// and returns an empty file-backed dynamic index on it. Close persists it
// in place; OpenDynamic reopens it. Options.Backend is ignored —
// CreateDynamic always uses the file-backed store at path.
func CreateDynamic(path string, opts *Options) (*Dynamic, error) {
	o := opts.normalized()
	if err := storage.RemoveScratch(path); err != nil {
		return nil, fmt.Errorf("prtree: create %s: %w", path, err)
	}
	fb, err := storage.CreateFile(path, o.BlockSize)
	if err != nil {
		return nil, fmt.Errorf("prtree: create %s: %w", path, err)
	}
	d, err := assembleDynamic(fb, o, path, nil)
	if err != nil {
		fb.Abandon()
		return nil, fmt.Errorf("prtree: create %s: %w", path, err)
	}
	if err := d.Sync(); err != nil {
		fb.Abandon()
		return nil, err
	}
	d.startCompaction(o)
	return d, nil
}

// OpenDynamic reopens the dynamic index file at path. The component
// directory and configuration come from the file; opts controls the page
// cache and compaction, and a non-zero opts.BlockSize is validated against
// the file's. Crash recovery (WAL replay) happens inside storage.OpenFile
// before the directory is read, so an index that died mid-merge opens to
// its last committed state.
func OpenDynamic(path string, opts *Options) (*Dynamic, error) {
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
	d, err := assembleDynamic(fb, o, path, fb.Meta())
	if err != nil {
		// Abandon, not Close: a failed open must not rewrite the header of
		// a file it could not validate.
		fb.Abandon()
		return nil, fmt.Errorf("prtree: open %s: %w", path, err)
	}
	d.recovery = fb.RecoveryInfo()
	d.startCompaction(o)
	return d, nil
}

// assembleDynamic stacks the backend decorators (optional mmap, optional
// WrapBackend, counting, pager) and builds or reopens the logmethod tree.
// meta == nil means a fresh empty tree; otherwise it is the directory blob
// a previous SaveState wrote.
func assembleDynamic(fb *storage.FileBackend, o Options, path string, meta []byte) (*Dynamic, error) {
	dev := storage.Backend(fb)
	if o.Mmap {
		m, err := storage.NewMmap(fb)
		if err != nil {
			return nil, err
		}
		dev = m
	}
	if o.WrapBackend != nil {
		dev = o.WrapBackend(dev)
	}
	counting, pager := newTree(dev, o)
	bopts := o.bulkOptions()
	var inner *logmethod.Tree
	if meta == nil {
		inner = logmethod.New(pager, bopts, 0)
	} else {
		var err error
		inner, err = logmethod.OpenState(pager, bopts, meta)
		if err != nil {
			pager.Close()
			return nil, err
		}
	}
	// Level builds (inline carries, rebuilds, the compactor's merges) put
	// their temporaries on one scratch file beside the index, kept for the
	// handle's lifetime so a carry pays no file create and delete.
	scratch := storage.NewScratch(path, fb.BlockSize())
	inner.SetScratch(scratch)
	return &Dynamic{inner: inner, io: counting, pager: pager, scratch: scratch, persist: true, path: path}, nil
}

// Path returns the index file path, or "" for non-file backends.
func (d *Dynamic) Path() string { return d.path }

// Recovery reports what crash recovery did when this index was opened:
// nil for a cleanly closed (or non-file) index, a populated RecoveryInfo
// when OpenDynamic found work in the write-ahead log. The index is fully
// consistent either way.
func (d *Dynamic) Recovery() *RecoveryInfo { return d.recovery }

// CheckPages verifies the checksum trailer of every in-use page of a
// file-backed dynamic index without panicking (nil for clean or non-file
// indexes), like Tree.CheckPages.
func (d *Dynamic) CheckPages() error {
	if d.closed {
		return fmt.Errorf("prtree: CheckPages on closed index")
	}
	fb, ok := storage.AsFile(d.io)
	if !ok {
		return nil
	}
	if err := fb.Fsck(); err != nil {
		return fmt.Errorf("prtree: %w", err)
	}
	return nil
}

// PageCounts reports the backing file's page-slot total and how many of
// those slots the index currently references (the rest sit on the free
// list, available for reuse without growing the file). Both are zero for
// non-file backends.
func (d *Dynamic) PageCounts() (total, inUse int) { return filePageCounts(d.io) }

// Sync persists the index's current state — pages, allocator and the
// component directory — through the backend (an fsync'd header rewrite
// for file-backed indexes, a no-op for in-memory ones). The index remains
// usable. With background compaction the in-flight merge, if any, is
// drained first.
func (d *Dynamic) Sync() error {
	if d.closed {
		return fmt.Errorf("prtree: Sync on closed index")
	}
	if c := d.comp; c != nil {
		release := c.Drain()
		defer release()
	}
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if d.persist {
		d.io.SetMeta(d.inner.SaveState(d.io))
	}
	if err := d.io.Sync(); err != nil {
		return fmt.Errorf("prtree: sync: %w", err)
	}
	return nil
}
