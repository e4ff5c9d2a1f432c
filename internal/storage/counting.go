package storage

import "sync/atomic"

// Counting decorates a Backend with block-I/O counters, making I/O stats a
// composable wrapper instead of a field baked into every device. The
// counters are atomic: Stats and ResetStats are safe while concurrent
// queries drive the wrapped backend, exactly like the Disk counters the
// facade exposed before.
//
// Alloc, Free and PeekNoCopy are deliberately uncounted, matching the
// Disk's accounting (allocation is bookkeeping; the write that follows is
// the I/O) so that a Counting-wrapped Disk reports the same totals the
// Disk's own counters do.
type Counting struct {
	inner Backend

	reads  atomic.Uint64
	writes atomic.Uint64
}

// NewCounting wraps b with fresh zeroed counters.
func NewCounting(b Backend) *Counting { return &Counting{inner: b} }

// Unwrap returns the wrapped backend.
func (c *Counting) Unwrap() Backend { return c.inner }

// Stats returns the cumulative block I/O observed through the wrapper.
func (c *Counting) Stats() Stats {
	return Stats{Reads: c.reads.Load(), Writes: c.writes.Load()}
}

// ResetStats zeroes the wrapper's counters (the inner backend's own
// accounting, if any, is untouched).
func (c *Counting) ResetStats() {
	c.reads.Store(0)
	c.writes.Store(0)
}

// BlockSize implements Backend.
func (c *Counting) BlockSize() int { return c.inner.BlockSize() }

// NumPages implements Backend.
func (c *Counting) NumPages() int { return c.inner.NumPages() }

// PagesInUse implements Backend.
func (c *Counting) PagesInUse() int { return c.inner.PagesInUse() }

// Alloc implements Backend (uncounted).
func (c *Counting) Alloc() PageID { return c.inner.Alloc() }

// Free implements Backend (uncounted).
func (c *Counting) Free(id PageID) { c.inner.Free(id) }

// Read implements Backend, counting one block read.
func (c *Counting) Read(id PageID, buf []byte) int {
	c.reads.Add(1)
	return c.inner.Read(id, buf)
}

// ReadNoCopy implements Backend, counting one block read.
func (c *Counting) ReadNoCopy(id PageID) []byte {
	c.reads.Add(1)
	return c.inner.ReadNoCopy(id)
}

// PeekNoCopy implements Backend (uncounted).
func (c *Counting) PeekNoCopy(id PageID) []byte { return c.inner.PeekNoCopy(id) }

// ReadStable implements StableReader, forwarding to the wrapped backend's
// zero-copy capability and counting one demand read on success. A miss
// (no capability, or no stable view for this page) counts nothing; the
// caller falls back to Read, which does the counting.
func (c *Counting) ReadStable(id PageID) ([]byte, bool) {
	sr, ok := c.inner.(StableReader)
	if !ok {
		return nil, false
	}
	data, ok := sr.ReadStable(id)
	if !ok {
		return nil, false
	}
	c.reads.Add(1)
	return data, true
}

// Write implements Backend, counting one block write.
func (c *Counting) Write(id PageID, data []byte) {
	c.writes.Add(1)
	c.inner.Write(id, data)
}

// SetMeta implements Backend.
func (c *Counting) SetMeta(meta []byte) { c.inner.SetMeta(meta) }

// Meta implements Backend.
func (c *Counting) Meta() []byte { return c.inner.Meta() }

// Begin implements Transactional, forwarding to the wrapped backend when
// it is transactional and doing nothing otherwise — transaction plumbing
// is not I/O and is never counted.
func (c *Counting) Begin() {
	if tx, ok := c.inner.(Transactional); ok {
		tx.Begin()
	}
}

// Commit implements Transactional (uncounted); see Begin.
func (c *Counting) Commit() error {
	if tx, ok := c.inner.(Transactional); ok {
		return tx.Commit()
	}
	return nil
}

// Rollback implements Transactional (uncounted); see Begin.
func (c *Counting) Rollback() {
	if tx, ok := c.inner.(Transactional); ok {
		tx.Rollback()
	}
}

// Sync implements Backend.
func (c *Counting) Sync() error { return c.inner.Sync() }

// SnapshotEnter implements Snapshotter, forwarding to the wrapped backend
// when it has the capability — snapshot bookkeeping is not I/O and is
// never counted.
func (c *Counting) SnapshotEnter() uint64 { return EnsureSnapshotter(c.inner).SnapshotEnter() }

// SnapshotLeave implements Snapshotter (uncounted); see SnapshotEnter.
func (c *Counting) SnapshotLeave(epoch uint64) { EnsureSnapshotter(c.inner).SnapshotLeave(epoch) }

// SnapshotAdvance implements Snapshotter (uncounted); see SnapshotEnter.
func (c *Counting) SnapshotAdvance() { EnsureSnapshotter(c.inner).SnapshotAdvance() }

// SnapshotStats implements Snapshotter (uncounted); see SnapshotEnter.
func (c *Counting) SnapshotStats() SnapshotStats { return EnsureSnapshotter(c.inner).SnapshotStats() }

// Close implements Backend.
func (c *Counting) Close() error { return c.inner.Close() }
