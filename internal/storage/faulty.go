package storage

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrInjectedFault is the sentinel every deliberately injected failure
// wraps — both the Faulty decorator's and FileBackend.SetCrashAfterSteps'.
// Tests match it with errors.Is to tell an injected fault from a real
// bug.
var ErrInjectedFault = errors.New("storage: injected fault")

// FaultMode selects what a Faulty decorator does when its trigger fires.
type FaultMode int

const (
	// FaultNone never fires; the decorator only counts operations.
	FaultNone FaultMode = iota
	// FaultError makes Sync/Commit return an error wrapping
	// ErrInjectedFault; a Write, which has no error path, is dropped and
	// fails every later Commit and Sync, as a page file's failed write does.
	FaultError
	// FaultStop silently swallows the triggering operation and every
	// later Write/Sync/Commit — persistence stops, no error surfaces.
	// The most treacherous disk: reads still work, writes go nowhere.
	FaultStop
)

func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultStop:
		return "stop"
	default:
		return fmt.Sprintf("FaultMode(%d)", int(m))
	}
}

// Faulty decorates a Backend with deterministic failure injection: after
// N counted operations (each page a Write stores, Sync, Commit — the
// persistence path), the configured fault fires. It models a live disk
// that errs or stops persisting; a killed process is
// FileBackend.SetCrashAfterSteps. Tests drive both (the facade's
// TestFaultSweepRecovery). The zero trigger (0) disarms injection.
//
// Faulty is safe for the same concurrent use as its inner backend; the
// trigger check is atomic.
type Faulty struct {
	inner Backend
	mode  FaultMode

	ops       atomic.Int64
	trigger   atomic.Int64
	tripped   atomic.Bool
	readFault atomic.Bool
	lostWrite atomic.Bool // a FaultError Write was dropped: Commit and Sync fail
}

// NewFaulty wraps b. The fault fires on the triggerAfter-th counted
// operation (1 = the very next one); triggerAfter <= 0 disarms.
func NewFaulty(b Backend, mode FaultMode, triggerAfter int64) *Faulty {
	f := &Faulty{inner: b, mode: mode}
	f.trigger.Store(triggerAfter)
	return f
}

// Ops returns the number of counted operations so far.
func (f *Faulty) Ops() int64 { return f.ops.Load() }

// Tripped reports whether the fault has fired at least once.
func (f *Faulty) Tripped() bool { return f.tripped.Load() }

// Arm resets the trigger to fire after n more counted operations (from
// now), keeping the mode. n <= 0 disarms.
func (f *Faulty) Arm(n int64) {
	f.tripped.Store(false)
	if n <= 0 {
		f.trigger.Store(0)
		return
	}
	f.trigger.Store(f.ops.Load() + n)
}

// step counts one operation and reports whether the fault fires on it.
// FaultError fires exactly once, at the trigger; FaultStop keeps firing on
// every operation after it.
func (f *Faulty) step() bool {
	n := f.ops.Add(1)
	t := f.trigger.Load()
	fire := t > 0 && n == t
	if fire {
		f.tripped.Store(true)
	}
	return fire || f.mode == FaultStop && f.tripped.Load()
}

func (f *Faulty) injected(op string) error {
	return fmt.Errorf("%w: %s after %d ops (%s mode)", ErrInjectedFault, op, f.ops.Load(), f.mode)
}

// BlockSize implements Backend.
func (f *Faulty) BlockSize() int { return f.inner.BlockSize() }

// NumPages implements Backend.
func (f *Faulty) NumPages() int { return f.inner.NumPages() }

// PagesInUse implements Backend.
func (f *Faulty) PagesInUse() int { return f.inner.PagesInUse() }

// Alloc implements Backend (never an injection point).
func (f *Faulty) Alloc() PageID { return f.inner.Alloc() }

// Free implements Backend (never an injection point).
func (f *Faulty) Free(id PageID) { f.inner.Free(id) }

// InjectReads makes ReadNoCopy and PeekNoCopy counted injection points
// too (they are uncounted pass-throughs by default: the write path is the
// usual durability surface under test). A firing read always panics with
// an error wrapping ErrInjectedFault regardless of mode — reads have no
// error return, and a panic is exactly how a real checksum mismatch
// surfaces on the read path — so the serving tier's quarantine machinery
// sees injected faults and real corruption identically.
func (f *Faulty) InjectReads(on bool) { f.readFault.Store(on) }

// readStep counts one read when read injection is enabled and panics if
// the fault fires on it.
func (f *Faulty) readStep() {
	if f.readFault.Load() && f.step() {
		panic(f.injected("read"))
	}
}

// ReadNoCopy implements Backend. Reads are uncounted pass-throughs unless
// InjectReads armed them as injection points.
func (f *Faulty) ReadNoCopy(id PageID) []byte {
	f.readStep()
	return f.inner.ReadNoCopy(id)
}

// PeekNoCopy implements Backend.
func (f *Faulty) PeekNoCopy(id PageID) []byte {
	f.readStep()
	return f.inner.PeekNoCopy(id)
}

// Write implements Backend, one counted operation a page, each forwarded
// on its own, applying the configured fault when triggered: the page is
// dropped, and under FaultError every later Commit and Sync fails with the
// injected error.
func (f *Faulty) Write(id PageID, pages ...[]byte) {
	for i, data := range pages {
		if f.step() {
			f.lostWrite.Store(f.mode != FaultStop)
			continue
		}
		f.inner.Write(id+PageID(i), data)
	}
}

// SetMeta implements Backend (uncounted; persisted by Commit/Sync, which
// are the injection points).
func (f *Faulty) SetMeta(meta []byte) { f.inner.SetMeta(meta) }

// Meta implements Backend.
func (f *Faulty) Meta() []byte { return f.inner.Meta() }

// Begin implements Backend (uncounted). Once FaultStop has tripped, Begin
// is swallowed: a dropped Commit left the inner transaction open, and the
// treacherous disk keeps acking.
func (f *Faulty) Begin() {
	if f.mode == FaultStop && f.tripped.Load() {
		return
	}
	f.inner.Begin()
}

// Commit implements Backend, an injection point: FaultStop drops the
// commit silently, FaultError (or a dropped Write) returns the error.
func (f *Faulty) Commit() error {
	if f.step() || f.lostWrite.Load() {
		if f.mode == FaultStop {
			return nil
		}
		return f.injected("commit")
	}
	return f.inner.Commit()
}

// Rollback implements Backend (uncounted; swallowed like Begin
// once FaultStop has tripped).
func (f *Faulty) Rollback() {
	if f.mode == FaultStop && f.tripped.Load() {
		return
	}
	f.inner.Rollback()
}

// SnapshotEnter implements Backend (uncounted, never faulted — snapshot
// bookkeeping is in-memory, not a disk operation).
func (f *Faulty) SnapshotEnter() uint64 { return f.inner.SnapshotEnter() }

// SnapshotLeave implements Backend (uncounted, never faulted).
func (f *Faulty) SnapshotLeave(epoch uint64) { f.inner.SnapshotLeave(epoch) }

// SnapshotAdvance implements Backend (uncounted, never faulted).
func (f *Faulty) SnapshotAdvance() { f.inner.SnapshotAdvance() }

// SnapshotStats implements Backend (uncounted, never faulted).
func (f *Faulty) SnapshotStats() SnapshotStats { return f.inner.SnapshotStats() }

// Stats implements Backend: the inner store's counters. An operation the
// fault stopped short of the store — a write FaultStop swallowed, a read
// that panicked — never reached it and is not counted.
func (f *Faulty) Stats() Stats { return f.inner.Stats() }

// ResetStats implements Backend, zeroing the inner store's counters.
func (f *Faulty) ResetStats() { f.inner.ResetStats() }

// Sync implements Backend, an injection point like Commit.
func (f *Faulty) Sync() error {
	if f.step() || f.lostWrite.Load() {
		if f.mode == FaultStop {
			return nil
		}
		return f.injected("sync")
	}
	return f.inner.Sync()
}

// Close implements Backend. Close is not an injection point: tests need a
// clean way to release a store they just tortured.
func (f *Faulty) Close() error { return f.inner.Close() }
