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
	// ErrInjectedFault (Write, whose interface has no error path,
	// panics with the same wrapped error).
	FaultError
	// FaultTorn truncates the triggering Write to half a block — a torn
	// page — and lets every later operation through untouched. Syncs and
	// commits triggering FaultTorn degrade to FaultError.
	FaultTorn
	// FaultCrash panics with an error wrapping ErrInjectedFault on the
	// triggering operation and on every operation after it, modeling a
	// killed process whose store is gone.
	FaultCrash
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
	case FaultTorn:
		return "torn"
	case FaultCrash:
		return "crash"
	case FaultStop:
		return "stop"
	default:
		return fmt.Sprintf("FaultMode(%d)", int(m))
	}
}

// Faulty decorates a Backend with deterministic failure injection: after
// N counted operations (Write, Sync, Commit — the persistence path), the
// configured fault fires. It exists so the recovery machinery is
// exercised continuously by tests (the facade's TestFaultSweepRecovery
// drives every mode) instead of only by real crashes. The zero trigger
// (0) disarms injection.
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
// FaultError and FaultTorn fire exactly once, at the trigger; the sticky
// modes (FaultCrash, FaultStop) keep firing on every operation after it.
func (f *Faulty) step() bool {
	n := f.ops.Add(1)
	t := f.trigger.Load()
	sticky := f.mode == FaultCrash || f.mode == FaultStop
	fire := t > 0 && n == t
	if fire {
		f.tripped.Store(true)
	}
	if !fire && sticky && f.tripped.Load() {
		fire = true
	}
	return fire
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

// Write implements Backend, applying the configured fault when triggered:
// FaultTorn truncates this write to half a block, FaultStop drops it,
// FaultCrash and FaultError panic (Write has no error return).
func (f *Faulty) Write(id PageID, data []byte) {
	if f.step() {
		switch f.mode {
		case FaultTorn:
			f.inner.Write(id, data[:len(data)/2])
			return
		case FaultStop:
			return
		default:
			panic(f.injected("write"))
		}
	}
	f.inner.Write(id, data)
}

// SetMeta implements Backend (uncounted; persisted by Commit/Sync, which
// are the injection points).
func (f *Faulty) SetMeta(meta []byte) { f.inner.SetMeta(meta) }

// Meta implements Backend.
func (f *Faulty) Meta() []byte { return f.inner.Meta() }

// Begin implements Backend (uncounted). Once a sticky fault has
// tripped, Begin follows it: FaultStop swallows the call (a dropped
// Commit left the inner transaction open, and the treacherous disk keeps
// acking), FaultCrash panics like every other operation.
func (f *Faulty) Begin() {
	if f.tripped.Load() {
		switch f.mode {
		case FaultStop:
			return
		case FaultCrash:
			panic(f.injected("begin"))
		}
	}
	f.inner.Begin()
}

// Commit implements Backend, an injection point: FaultStop drops
// the commit silently, FaultCrash panics, other modes return the
// injected error.
func (f *Faulty) Commit() error {
	if f.step() {
		switch f.mode {
		case FaultStop:
			return nil
		case FaultCrash:
			panic(f.injected("commit"))
		default:
			return f.injected("commit")
		}
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
	if f.step() {
		switch f.mode {
		case FaultStop:
			return nil
		case FaultCrash:
			panic(f.injected("sync"))
		default:
			return f.injected("sync")
		}
	}
	return f.inner.Sync()
}

// Close implements Backend. Close is not an injection point: tests need a
// clean way to release a store they just tortured.
func (f *Faulty) Close() error { return f.inner.Close() }
