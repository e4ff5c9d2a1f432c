package storage

import (
	"bytes"
	"errors"
	"testing"
)

// TestFaultyError: FaultError surfaces on the error-returning entry
// points and panics on Write (which has none).
func TestFaultyError(t *testing.T) {
	f := NewFaulty(NewDisk(256), FaultError, 1)
	if err := f.Sync(); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("Sync = %v, want ErrInjectedFault", err)
	}
	if !f.Tripped() {
		t.Error("Tripped() false after the fault fired")
	}
	// FaultError is not sticky: the next op goes through.
	if err := f.Sync(); err != nil {
		t.Fatalf("second Sync = %v, want nil", err)
	}

	f2 := NewFaulty(NewDisk(256), FaultError, 1)
	id := f2.Alloc()
	expectFaultPanic(t, func() { f2.Write(id, []byte{1}) })
}

// TestFaultyTorn: the triggering write lands as half a block; later
// writes are whole again.
func TestFaultyTorn(t *testing.T) {
	disk := NewDisk(256)
	f := NewFaulty(disk, FaultTorn, 2)
	a := f.Alloc()
	b := f.Alloc()
	full := bytes.Repeat([]byte{0xAB}, 256)
	f.Write(a, full) // op 1: intact
	f.Write(b, full) // op 2: torn
	if got := disk.ReadNoCopy(a); !bytes.Equal(got, full) {
		t.Error("pre-trigger write damaged")
	}
	got := disk.ReadNoCopy(b)
	if !bytes.Equal(got[:128], full[:128]) {
		t.Error("torn write lost its head")
	}
	for _, by := range got[128:] {
		if by != 0 {
			t.Error("torn write filled its tail")
			break
		}
	}
	c := f.Alloc()
	f.Write(c, full) // post-trigger: intact again
	if got := disk.ReadNoCopy(c); !bytes.Equal(got, full) {
		t.Error("post-trigger write damaged")
	}
}

// TestFaultyCrashSticky: FaultCrash keeps killing every operation after
// the trigger, like a dead process's file descriptors.
func TestFaultyCrashSticky(t *testing.T) {
	f := NewFaulty(NewDisk(256), FaultCrash, 1)
	id := f.Alloc()
	expectFaultPanic(t, func() { f.Write(id, []byte{1}) })
	expectFaultPanic(t, func() { f.Write(id, []byte{2}) })
	expectFaultPanic(t, func() { f.Sync() })
}

// TestFaultyStop: FaultStop silently swallows persistence from the
// trigger on — the treacherous disk that acknowledges and drops.
func TestFaultyStop(t *testing.T) {
	disk := NewDisk(256)
	f := NewFaulty(disk, FaultStop, 2)
	a := f.Alloc()
	f.Write(a, bytes.Repeat([]byte{1}, 256)) // op 1: lands
	f.Write(a, bytes.Repeat([]byte{2}, 256)) // op 2: dropped
	if err := f.Sync(); err != nil {         // dropped, reports success
		t.Fatalf("Sync = %v", err)
	}
	if got := disk.ReadNoCopy(a); got[0] != 1 {
		t.Errorf("dropped write reached the disk")
	}
}

// TestFaultyArm: Arm re-arms relative to the current op count.
func TestFaultyArm(t *testing.T) {
	f := NewFaulty(NewDisk(256), FaultError, 0) // disarmed
	id := f.Alloc()
	f.Write(id, []byte{1})
	if err := f.Sync(); err != nil {
		t.Fatalf("disarmed Sync = %v", err)
	}
	f.Arm(2)
	f.Write(id, []byte{2}) // op 3 of lifetime, 1 after Arm
	if err := f.Sync(); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("armed Sync = %v, want ErrInjectedFault", err)
	}
	f.Arm(0)
	if f.Tripped() {
		t.Error("Arm(0) did not clear Tripped")
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("re-disarmed Sync = %v", err)
	}
}

// TestFaultyCommitError: a FaultError on Commit leaves the inner file
// backend's transaction open for Rollback, and the store recovers to the
// committed state.
func TestFaultyCommitError(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 256)
	if err != nil {
		t.Fatal(err)
	}
	a := fb.Alloc()
	fb.Write(a, bytes.Repeat([]byte{0xA1}, 256))
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(fb, FaultError, 1)
	f.Begin()
	f.Alloc() // uncounted
	if err := f.Commit(); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("Commit = %v, want ErrInjectedFault", err)
	}
	f.Rollback()
	if got := fb.NumPages(); got != 1 {
		t.Errorf("NumPages = %d after rollback, want 1", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultyTransparent: a disarmed Faulty is invisible — it forwards
// everything, including the transaction hooks a plain Disk implements as
// no-ops and the inner store's I/O counters.
func TestFaultyTransparent(t *testing.T) {
	disk := NewDisk(256)
	f := NewFaulty(disk, FaultNone, 0)
	f.Begin() // a Disk's Begin is a no-op: must not panic
	id := f.Alloc()
	f.Write(id, []byte{42})
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	f.Rollback()
	buf := make([]byte, 256)
	f.Read(id, buf)
	if buf[0] != 42 {
		t.Error("forwarded write lost")
	}
	if f.Ops() != 2 { // 1 write + 1 commit
		t.Errorf("Ops = %d, want 2", f.Ops())
	}
	if got, want := f.Stats(), disk.Stats(); got != want || got != (Stats{Reads: 1, Writes: 1}) {
		t.Errorf("Faulty.Stats = %v, inner store %v; want reads=1 writes=1 from both", got, want)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
