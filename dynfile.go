package prtree

import (
	"fmt"

	"prtree/internal/logmethod"
)

// File-backed dynamic indexes: CreateDynamic makes a new index file,
// InsertE/DeleteE commit each mutation durably (one transaction each, like
// the static tree's BulkLoad), Close persists in place and OpenDynamic
// serves it again — including recovery from a crash at any point, carries
// included.
//
// The on-disk format extends the static page file: the header's metadata
// blob holds the logarithmic method's component directory (one static
// PR-tree meta record per occupied level) and the heads of two chained
// state-page lists carrying the insert buffer and the tombstone set.
//
// That is the saved state, and it is not rewritten by every mutation. It
// is saved — blob and chains, inside the transaction of the change, so a
// crash recovers either the whole old state or the whole new one — when
// the level directory changes (a carry, a rebuild, a flush) and by Sync and
// Close. A mutation that changes only the buffer or the tombstone set
// commits as a note in the write-ahead log (storage.FileBackend.Note):
// "insert item" or "delete item", 37 bytes, one log fsync, no page write.
// The committed index is the last saved state plus the notes logged after
// it; OpenDynamic finds them in a log a crash left behind and runs them
// through the ordinary Insert and Delete, in one transaction that saves
// the result, before anyone sees the index. In particular a crash while a carry was mid-build recovers the
// pre-carry directory with every acknowledged mutation: the carry wrote
// only pages the committed state holds free, so its half-built level is
// unreferenced.

// CreateDynamic makes a new (or truncates an existing) index file at path
// and returns an empty file-backed dynamic index on it. Close persists it
// in place; OpenDynamic reopens it.
func CreateDynamic(path string, opts *Options) (*Dynamic, error) {
	d := new(Dynamic)
	err := d.openFile(path, opts, true, func(o Options) error {
		d.inner = logmethod.New(d.pager, o.bulkOptions(), 0)
		d.inner.SetScratch(d.scratch)
		return d.Sync()
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// OpenDynamic reopens the dynamic index file at path. The component
// directory and configuration come from the file; opts controls the page
// cache and the level builds, and a non-zero opts.BlockSize is validated
// against the file's. Crash recovery happens before the index is returned:
// storage.OpenFile adopts the last committed state the log records, then
// the mutations the log holds as notes run again (see Recovery), so an
// index that died at any point — mid carry included — opens to its last
// acknowledged mutation.
func OpenDynamic(path string, opts *Options) (*Dynamic, error) {
	d := new(Dynamic)
	err := d.openFile(path, opts, false, func(o Options) (err error) {
		if d.inner, err = logmethod.OpenState(d.pager, o.bulkOptions(), d.fb.Meta()); err != nil {
			return err
		}
		d.inner.SetScratch(d.scratch)
		return d.reapplyNotes()
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// reapplyNotes finishes crash recovery: the backend adopted the last
// committed state and kept the log because it holds notes; the mutations
// noted after the last save run again here, through the ordinary Insert and
// Delete — carries included — in one transaction that saves the result.
// Then the notes are history, and the checkpoint the backend put off at
// open retires the log. A crash anywhere in here finds the same log, or
// the same log with the saved result at its end, and does it again.
func (d *Dynamic) reapplyNotes() error {
	notes := d.fb.RecoveredNotes()
	if len(notes) == 0 {
		return nil
	}
	pending, err := logmethod.PendingMutations(notes)
	if err != nil {
		return err
	}
	if len(pending) > 0 {
		err := d.mutate(nil, func() {
			for _, m := range pending {
				d.inner.Apply(m)
			}
		})
		if err != nil {
			return fmt.Errorf("re-applying %d logged mutations: %w", len(pending), err)
		}
		d.recovery.ReappliedNotes = len(pending)
	}
	d.fb.ConsumeNotes()
	if err := d.io.Sync(); err != nil {
		return fmt.Errorf("checkpoint after recovery: %w", err)
	}
	return nil
}

// Sync persists the index's current state — pages, allocator and the
// component directory — through the backend and leaves the page file
// alone describing it: for a file-backed index one committed transaction
// that saves the state, a second one if pages in the file's tail can move
// into free pages below them (see saveAndSettle), then the backend's
// checkpoint (an fsync'd header rewrite, the free tail of the file
// truncated away, the log truncated); a no-op for in-memory ones. Mutations
// are durable when InsertE/DeleteE return, with or without Sync; what Sync
// buys is an empty log, an index file that opens without recovery and —
// unless readers still hold pages of a replaced level, which then go at the
// next Sync — a file no longer than the pages it uses. Between Syncs a
// carry builds its level beside the ones it replaces, so the file grows by
// the size of the level being built. The index remains usable.
func (d *Dynamic) Sync() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.sync(d.saveAndSettle)
}

// saveAndSettle is what Sync and Close do before the backend's checkpoint.
// One committed transaction saves the state: the chains, rewritten
// wholesale, take the lowest holes of the file. Then, if the index's pages
// reach into the file's tail and the holes below can take them, a second
// transaction moves them there (logmethod's Settle, whose save names the
// chains of the first again), so that everything past the pages in use is
// free and the checkpoint truncates it. An index with nothing to move pays
// for the first transaction alone. The caller holds wmu.
func (d *Dynamic) saveAndSettle() error {
	if d.fb == nil {
		return nil
	}
	if err := d.transact(nil, func() {}); err != nil {
		return err
	}
	_, err := d.inner.Settle(d.fb.ReusablePages(), func(fn func()) error { return d.transact(nil, fn) })
	return err
}
