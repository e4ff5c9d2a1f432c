// Package compact is the background compaction subsystem for the
// dynamized PR-tree: a supervisor goroutine that watches a
// logmethod.Tree for full buffers, rebuilds the merged level off to the
// side with the parallel bulk loaders while readers keep serving the old
// components, and atomically installs the result as one committed
// transaction. It turns the logarithmic method's worst-case O(N) insert
// stall (a full inline carry) into an O(1) buffer append: inserts during
// a merge land in the fresh buffer and are carried into the next merge.
//
// The subsystem leans on two pieces built elsewhere:
//
//   - storage.Snapshotter (epoch-pinned page reclamation) makes the swap
//     safe for lock-free readers: pages of a replaced level stay
//     byte-stable until the last reader of the superseded state drains.
//   - The WAL transaction bracket (supplied by the owner as Config.Commit)
//     makes the swap atomic and durable: crash before the install commit
//     recovers the pre-merge state; after, the post-merge state.
//
// The supervisor reuses the failure-isolation idioms of internal/serve's
// shard-recovery loop: panics in a merge cycle are contained (the merge
// aborts, the structure unwinds to its pre-merge state) and retried with
// doubling, jittered backoff.
package compact

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"prtree/internal/logmethod"
	"prtree/internal/storage"
)

// Config wires a Compactor to the tree it drives.
type Config struct {
	// Tree is the dynamized structure to compact. Required.
	Tree *logmethod.Tree

	// Commit brackets fn in the owner's mutation transaction — the same
	// serialization and durability (Begin / fn / stage meta / Commit)
	// that Insert and Delete get. Required. The install step and deferred
	// tombstone-GC rebuilds run through it.
	Commit func(fn func()) error

	// Backend is the storage under the tree, used for snapshot statistics
	// and the rollback guard (see storage.FileBackend.Rollbacks). Required.
	Backend storage.Backend

	// MaxBuffer bounds buffer growth while a merge is in flight: Throttle
	// blocks inserts once the buffer holds this many items (default twice
	// the buffer's largest capacity, so a full buffer fits beside the one
	// being merged). The bound is what keeps the insert path's worst case
	// at O(buffer merge) instead of unbounded memory.
	MaxBuffer int

	// Interval is the supervisor's poll fallback when no kick arrives
	// (default 25ms). Kicks from the insert path wake it immediately.
	Interval time.Duration

	// Backoff and MaxBackoff shape the retry delay after a failed or
	// panicked merge cycle (defaults 50ms and 5s), matching the serve
	// package's recovery supervisor.
	Backoff    time.Duration
	MaxBackoff time.Duration
}

func (c Config) normalized() Config {
	if c.MaxBuffer <= 0 {
		c.MaxBuffer = 2 * c.Tree.BufferCeiling()
	}
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	return c
}

// Stats is a point-in-time view of the compactor's counters plus the
// backend's epoch state. Write amplification is measured in items: every
// item a merge rewrites, over every item a merge newly absorbed from the
// buffer — the logarithmic method's rebuild factor, observed rather than
// derived.
type Stats struct {
	MergesStarted   uint64 `json:"merges_started"`
	MergesCompleted uint64 `json:"merges_completed"`
	MergesAborted   uint64 `json:"merges_aborted"`
	GCRebuilds      uint64 `json:"gc_rebuilds"`
	PagesRewritten  uint64 `json:"pages_rewritten"`
	ItemsMerged     uint64 `json:"items_merged"`
	ItemsAbsorbed   uint64 `json:"items_absorbed"`
	// WriteAmplification = ItemsMerged / ItemsAbsorbed (0 until a merge
	// completes).
	WriteAmplification float64 `json:"write_amplification"`

	// Epoch, PinnedPages and SnapshotReaders mirror the backend's
	// storage.SnapshotStats at collection time.
	Epoch           uint64 `json:"epoch"`
	PinnedPages     int    `json:"pinned_pages"`
	SnapshotReaders int    `json:"snapshot_readers"`
}

// Compactor drives background merges for one tree. Create with New,
// start with Start, stop with Stop (or Close).
type Compactor struct {
	cfg Config
	fb  *storage.FileBackend // nil on memory-only chains; rollback guard off

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}

	pauseMu sync.Mutex // held by Drain'd sections; the loop takes it per cycle

	mergesStarted   atomic.Uint64
	mergesCompleted atomic.Uint64
	mergesAborted   atomic.Uint64
	gcRebuilds      atomic.Uint64
	pagesRewritten  atomic.Uint64
	itemsMerged     atomic.Uint64
	itemsAbsorbed   atomic.Uint64
}

// New returns an unstarted compactor and switches the tree into
// background-carry mode (inserts stop carrying inline immediately, so
// call Start promptly).
func New(cfg Config) *Compactor {
	cfg = cfg.normalized()
	c := &Compactor{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	c.fb, _ = storage.AsFile(cfg.Backend)
	cfg.Tree.SetBackground(true)
	return c
}

// Start launches the supervisor goroutine. Idempotent.
func (c *Compactor) Start() {
	c.startOnce.Do(func() { go c.run() })
}

// Stop halts the supervisor, waiting for an in-progress cycle to land or
// abort. The tree reverts to inline (synchronous) carries. Idempotent.
func (c *Compactor) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
		c.Start() // ensure done closes even if Start was never called
		<-c.done
		c.cfg.Tree.SetBackground(false)
	})
}

// Throttle applies insert-path backpressure: it blocks while a merge is
// in flight and the buffer already holds MaxBuffer items. Call before —
// never inside — the insert's transaction bracket.
func (c *Compactor) Throttle() {
	c.cfg.Tree.WaitCapacity(c.cfg.MaxBuffer)
}

// Drain waits until no merge is in flight and returns a release function
// holding the compactor paused; callers bracket operations that must not
// race a merge (Flush's full rebuild) between Drain() and release().
func (c *Compactor) Drain() (release func()) {
	c.pauseMu.Lock()
	c.cfg.Tree.WaitIdle()
	return c.pauseMu.Unlock
}

// Stats returns the cumulative counters plus the backend's epoch state.
func (c *Compactor) Stats() Stats {
	st := Stats{
		MergesStarted:   c.mergesStarted.Load(),
		MergesCompleted: c.mergesCompleted.Load(),
		MergesAborted:   c.mergesAborted.Load(),
		GCRebuilds:      c.gcRebuilds.Load(),
		PagesRewritten:  c.pagesRewritten.Load(),
		ItemsMerged:     c.itemsMerged.Load(),
		ItemsAbsorbed:   c.itemsAbsorbed.Load(),
	}
	if st.ItemsAbsorbed > 0 {
		st.WriteAmplification = float64(st.ItemsMerged) / float64(st.ItemsAbsorbed)
	}
	snap := storage.EnsureSnapshotter(c.cfg.Backend).SnapshotStats()
	st.Epoch = snap.Epoch
	st.PinnedPages = snap.PinnedPages
	st.SnapshotReaders = snap.Readers
	return st
}

// run is the supervisor loop: wake on a kick (buffer filled), the poll
// interval, or stop; run one cycle; back off after failures.
func (c *Compactor) run() {
	defer close(c.done)
	backoff := c.cfg.Backoff
	timer := time.NewTimer(c.cfg.Interval)
	defer timer.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-c.cfg.Tree.CarryKick():
		case <-timer.C:
		}
		ok := c.cycle()
		if ok {
			backoff = c.cfg.Backoff
			timer.Reset(c.cfg.Interval)
			continue
		}
		// Failed or panicked cycle: doubling backoff with jitter, the
		// serve supervisor's retry shape.
		sleep := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		if backoff *= 2; backoff > c.cfg.MaxBackoff {
			backoff = c.cfg.MaxBackoff
		}
		select {
		case <-c.stop:
			return
		case <-time.After(sleep):
		}
		timer.Reset(c.cfg.Interval)
	}
}

// rollbackGen reads the backend's rollback counter (always 0 on memory
// chains, where transactions are no-ops and rollback cannot revoke
// allocations).
func (c *Compactor) rollbackGen() uint64 {
	if c.fb == nil {
		return 0
	}
	return c.fb.Rollbacks()
}

// cycle runs at most one unit of background work — a deferred GC rebuild
// or one carry merge — and reports whether the compactor is healthy (an
// idle cycle is healthy; only a panic or failed commit is not).
func (c *Compactor) cycle() (healthy bool) {
	c.pauseMu.Lock()
	defer c.pauseMu.Unlock()

	t := c.cfg.Tree
	if t.TakeGCPending() {
		if err := c.cfg.Commit(func() { t.RunGC() }); err != nil {
			return false
		}
		c.gcRebuilds.Add(1)
	}

	job, ok := t.BeginCarry()
	if !ok {
		return true
	}
	c.mergesStarted.Add(1)
	gen := c.rollbackGen()

	// Build off to the side, outside any transaction. A panic here must
	// not take the process down (serve threads the insert path through
	// live traffic): contain it, unwind the carry, report unhealthy so
	// the loop backs off before retrying.
	built := func() (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		job.Build()
		return true
	}()
	if !built {
		// Pages allocated before the panic are only reclaimable if no
		// rollback revoked them meanwhile; the half-built tree itself is
		// unusable either way.
		job.Abort(gen == c.rollbackGen())
		c.mergesAborted.Add(1)
		return false
	}

	var installed bool
	err := c.cfg.Commit(func() {
		// The commit bracket serializes against every writer transaction,
		// so the generation is stable within it. If a rollback hit while
		// the build ran, the built pages may have been handed to someone
		// else — abandon them and retry the merge from scratch.
		if gen != c.rollbackGen() {
			job.Abort(false)
			return
		}
		job.Install()
		installed = true
	})
	if err != nil {
		// The commit itself failed: the install's state swap already
		// happened in memory but never became durable; the caller's
		// rollback restored the allocator. The in-memory directory is
		// still coherent (it references pre-merge pages that remain
		// allocated in memory), but the safest recovery is to surface
		// unhealthy and let the owner decide — mirroring how Insert's
		// commit failures panic out of prtree.Dynamic.
		c.mergesAborted.Add(1)
		return false
	}
	if !installed {
		c.mergesAborted.Add(1)
		return false
	}
	c.mergesCompleted.Add(1)
	c.itemsMerged.Add(uint64(job.InputItems()))
	c.itemsAbsorbed.Add(uint64(job.NewItems()))
	c.pagesRewritten.Add(uint64(job.BuiltNodes()))
	storage.EnsureSnapshotter(c.cfg.Backend).SnapshotAdvance()
	return true
}
