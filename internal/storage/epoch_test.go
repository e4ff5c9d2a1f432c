package storage

import (
	"path/filepath"
	"testing"
)

// TestSnapshotPinsDisk checks the copy-on-write contract on the simulator:
// a page freed while a snapshot reader is active is not recycled until the
// reader leaves, and is recycled afterwards.
func TestSnapshotPinsDisk(t *testing.T) {
	d := NewDisk(64)
	a := d.Alloc()
	d.Write(a, []byte("live bytes"))

	e := d.SnapshotEnter()
	d.Free(a)
	if got := d.SnapshotStats(); got.PinnedPages != 1 || got.Readers != 1 {
		t.Fatalf("stats after pinned free: %+v", got)
	}
	b := d.Alloc()
	if b == a {
		t.Fatalf("Alloc recycled pinned page %d under an active snapshot", a)
	}
	// The pinned page's bytes must still be readable.
	buf := d.ReadNoCopy(a)
	if string(buf[:10]) != "live bytes" {
		t.Fatalf("pinned page lost its bytes: %q", buf[:10])
	}

	d.SnapshotLeave(e)
	if got := d.SnapshotStats(); got.PinnedPages != 0 || got.Readers != 0 {
		t.Fatalf("stats after drain: %+v", got)
	}
	if c := d.Alloc(); c != a {
		t.Fatalf("Alloc after drain = %d, want recycled page %d", c, a)
	}
}

// TestSnapshotNoReadersNoPins checks that frees without active readers
// recycle immediately — the epoch machinery must cost nothing when idle.
func TestSnapshotNoReadersNoPins(t *testing.T) {
	d := NewDisk(64)
	a := d.Alloc()
	d.Free(a)
	if got := d.SnapshotStats().PinnedPages; got != 0 {
		t.Fatalf("pins without readers: %d", got)
	}
	if b := d.Alloc(); b != a {
		t.Fatalf("Alloc = %d, want immediate recycle of %d", b, a)
	}
}

// TestSnapshotEpochOverlap checks the conservative drain rule: pins taken
// while an old reader is active survive a newer reader entering and
// leaving, and drain only when the old reader goes.
func TestSnapshotEpochOverlap(t *testing.T) {
	d := NewDisk(64)
	a := d.Alloc()

	old := d.SnapshotEnter()
	d.Free(a) // pinned at the old reader's epoch
	d.SnapshotAdvance()
	young := d.SnapshotEnter() // enters the advanced epoch
	d.SnapshotLeave(young)
	if got := d.SnapshotStats().PinnedPages; got != 1 {
		t.Fatalf("pin dropped while its epoch's reader is still active: pins=%d", got)
	}
	d.SnapshotLeave(old)
	if got := d.SnapshotStats().PinnedPages; got != 0 {
		t.Fatalf("pin survived its last reader: pins=%d", got)
	}
}

// TestSnapshotLeaveUnbalancedPanics documents the bracket contract.
func TestSnapshotLeaveUnbalancedPanics(t *testing.T) {
	d := NewDisk(64)
	defer func() {
		if recover() == nil {
			t.Fatal("SnapshotLeave without Enter did not panic")
		}
	}()
	d.SnapshotLeave(0)
}

// TestSnapshotPinsFileBackend checks pinning on the durable backend and —
// the crash-safety half of the contract — that a page freed-but-pinned
// inside a committed transaction is on the durable freelist: a reopen
// (which has no readers, hence no pins) recycles it instead of leaking it.
func TestSnapshotPinsFileBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pins.pr")
	fb, err := CreateFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	a := fb.Alloc()
	fb.Write(a, []byte("old level"))
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}

	e := fb.SnapshotEnter()
	fb.Begin()
	fb.Free(a)
	fresh := fb.Alloc()
	if fresh == a {
		t.Fatalf("transaction recycled page %d freed under an active snapshot", a)
	}
	fb.Write(fresh, []byte("new level"))
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	// Committed, reader still active: the old page stays pinned...
	if b := fb.Alloc(); b == a {
		t.Fatalf("Alloc recycled pinned page %d after commit", a)
	}
	buf := make([]byte, 128)
	fb.Read(a, buf)
	if string(buf[:9]) != "old level" {
		t.Fatalf("pinned page lost its bytes: %q", buf[:9])
	}
	// ...and drains when the reader leaves.
	fb.SnapshotAdvance()
	fb.SnapshotLeave(e)
	if got := fb.SnapshotStats().PinnedPages; got != 0 {
		t.Fatalf("pins after drain: %d", got)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// A restart has no readers: the committed freelist must contain the
	// retired page (no leak), so Alloc hands it out again.
	fb2, err := OpenFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	seen := map[PageID]bool{}
	for i, n := 0, fb2.NumPages(); i < n; i++ {
		seen[fb2.Alloc()] = true
	}
	if !seen[a] {
		t.Fatalf("reopened file leaked retired page %d", a)
	}
}
