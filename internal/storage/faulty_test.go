package storage

import (
	"bytes"
	"errors"
	"testing"
)

// TestFaultyError: FaultError surfaces on the error-returning entry
// points; a Write, which has none, does not happen, and every later Commit
// and Sync returns its error.
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

	disk := NewDisk(256)
	f2 := NewFaulty(disk, FaultError, 1)
	id := f2.Alloc()
	f2.Write(id, []byte{1})
	if got := disk.ReadNoCopy(id); got[0] != 0 {
		t.Error("the failed write reached the disk")
	}
	for i := 0; i < 2; i++ {
		if err := f2.Commit(); !errors.Is(err, ErrInjectedFault) {
			t.Errorf("Commit %d after the failed write = %v, want ErrInjectedFault", i+1, err)
		}
		if err := f2.Sync(); !errors.Is(err, ErrInjectedFault) {
			t.Errorf("Sync %d after the failed write = %v, want ErrInjectedFault", i+1, err)
		}
	}
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
// backend's transaction open; Rollback ends the handle, whose Close writes
// nothing, and the file reopens to the committed state.
func TestFaultyCommitError(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
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
	if err := f.Sync(); err == nil {
		t.Error("Sync after Rollback succeeded")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NumPages(); got != 1 {
		t.Errorf("reopened with %d pages, want the committed 1", got)
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
	buf := f.ReadNoCopy(id)
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
