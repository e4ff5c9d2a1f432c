package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"
)

// expectFaultPanic runs fn and asserts it panics with an error wrapping
// ErrInjectedFault, returning normally afterwards.
func expectFaultPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic; expected an injected fault")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("panic value %v, want error wrapping ErrInjectedFault", r)
		}
	}()
	fn()
}

// TestFileBackendTxCommitDurable: a committed transaction survives a
// process that dies without ever checkpointing — the log replays it.
func TestFileBackendTxCommitDurable(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := fb.Alloc()
	b := fb.Alloc()
	fb.Write(a, bytes.Repeat([]byte{0xA1}, 256))
	fb.Write(b, bytes.Repeat([]byte{0xB1}, 256))
	fb.SetMeta([]byte("before"))
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}

	fb.Begin()
	newA := bytes.Repeat([]byte{0xA2}, 256)
	fb.Write(a, newA) // overwrite of a committed-live page: journaled
	fb.Free(b)
	c := fb.Alloc() // fresh page: direct write
	fb.Write(c, bytes.Repeat([]byte{0xC1}, 100))
	fb.SetMeta([]byte("after"))
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	fb.Abandon() // crash: no Sync, no Close

	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.RecoveryInfo()
	if ri == nil || ri.ReplayedTxs != 1 {
		t.Fatalf("RecoveryInfo = %+v, want 1 replayed tx", ri)
	}
	if got := re.ReadNoCopy(a); !bytes.Equal(got, newA) {
		t.Errorf("page a lost the committed write")
	}
	if got := re.ReadNoCopy(c)[:100]; !bytes.Equal(got, bytes.Repeat([]byte{0xC1}, 100)) {
		t.Errorf("fresh page c lost the committed write")
	}
	if got := string(re.Meta()); got != "after" {
		t.Errorf("meta = %q, want %q", got, "after")
	}
	// b was freed in the committed transaction: it must recycle.
	if id := re.Alloc(); id != b {
		t.Errorf("Alloc = %d, want recycled %d", id, b)
	}
}

// TestFileBackendTxCrashBeforeCommitRollsBack: a transaction whose commit
// marker never reached the log disappears entirely on reopen.
func TestFileBackendTxCrashBeforeCommitRollsBack(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := fb.Alloc()
	oldA := bytes.Repeat([]byte{0xA1}, 256)
	fb.Write(a, oldA)
	fb.SetMeta([]byte("before"))
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}

	fb.Begin()
	fb.Write(a, bytes.Repeat([]byte{0xA2}, 256))
	fb.SetMeta([]byte("after"))
	// Kill inside Commit after the PAGE record is appended but before the
	// commit marker: step base+1 appends PAGE, base+2 (STATE) dies.
	fb.SetCrashAfterSteps(fb.PersistSteps() + 2)
	expectFaultPanic(t, func() { fb.Commit() })
	fb.Abandon()

	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.RecoveryInfo()
	if ri == nil || ri.ReplayedTxs != 0 || ri.DiscardedRecords != 1 {
		t.Fatalf("RecoveryInfo = %+v, want 0 replayed txs, 1 discarded record", ri)
	}
	if got := re.ReadNoCopy(a); !bytes.Equal(got, oldA) {
		t.Errorf("uncommitted write leaked into page a")
	}
	if got := string(re.Meta()); got != "before" {
		t.Errorf("meta = %q, want %q", got, "before")
	}
}

// TestFileBackendTxCrashBeforeApplyReplays: kill after the commit marker
// is durable but before the images are applied to the page file — the
// replay path must do real work.
func TestFileBackendTxCrashBeforeApplyReplays(t *testing.T) {
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

	fb.Begin()
	newA := bytes.Repeat([]byte{0xA2}, 256)
	fb.Write(a, newA)
	// Steps inside Commit with one journaled page and no direct writes:
	// +1 PAGE, +2 STATE, +3 COMMIT, +4 log fsync, +5 the in-place apply.
	fb.SetCrashAfterSteps(fb.PersistSteps() + 5)
	expectFaultPanic(t, func() { fb.Commit() })
	fb.Abandon()

	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.RecoveryInfo()
	if ri == nil || ri.ReplayedTxs != 1 || ri.ReplayedPages != 1 {
		t.Fatalf("RecoveryInfo = %+v, want 1 tx / 1 page replayed", ri)
	}
	if got := re.ReadNoCopy(a); !bytes.Equal(got, newA) {
		t.Errorf("committed-but-unapplied write lost")
	}
}

// TestFileBackendTxRollback: Rollback restores allocator state and
// metadata, and the backend stays fully usable.
func TestFileBackendTxRollback(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	a := fb.Alloc()
	oldA := bytes.Repeat([]byte{0xA1}, 256)
	fb.Write(a, oldA)
	fb.SetMeta([]byte("before"))
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}

	fb.Begin()
	fb.Write(a, bytes.Repeat([]byte{0xA2}, 256))
	if got := fb.ReadNoCopy(a); got[0] != 0xA2 {
		t.Errorf("transactional read did not see the overlay")
	}
	fb.Alloc()
	fb.SetMeta([]byte("doomed"))
	fb.Rollback()

	if got := fb.ReadNoCopy(a); !bytes.Equal(got, oldA) {
		t.Errorf("rolled-back write visible on page a")
	}
	if got := fb.NumPages(); got != 1 {
		t.Errorf("NumPages = %d after rollback, want 1", got)
	}
	if got := string(fb.Meta()); got != "before" {
		t.Errorf("meta = %q after rollback, want %q", got, "before")
	}

	// The next transaction must work normally.
	fb.Begin()
	fb.Write(a, bytes.Repeat([]byte{0xA3}, 256))
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := fb.ReadNoCopy(a); got[0] != 0xA3 {
		t.Errorf("post-rollback commit lost")
	}
}

// TestFileBackendTxAllocDoesNotRecycleTxFreed: pages freed inside a
// transaction must not be recycled before it commits — their committed
// content is the rollback target.
func TestFileBackendTxAllocDoesNotRecycleTxFreed(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	a, keep := fb.Alloc(), fb.Alloc()
	fb.Write(a, bytes.Repeat([]byte{0xA1}, 256))
	fb.Write(keep, bytes.Repeat([]byte{0xA2}, 256))
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	fb.Begin()
	fb.Free(a)
	if id := fb.Alloc(); id == a {
		t.Fatalf("Alloc recycled page %d freed in the same transaction", a)
	}
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	// After commit the freed page is recyclable.
	if id := fb.Alloc(); id != a {
		t.Errorf("Alloc = %d after commit, want recycled %d", id, a)
	}
}

// TestFileBackendTxEmptiedStoreReusesAPage: the exception to the rule
// above. A transaction that frees every page of the store and then
// allocates gets one of them back — through the redo journal, so a crash
// before the commit marker still recovers the old bytes — and the file
// does not grow by the page it replaced.
func TestFileBackendTxEmptiedStoreReusesAPage(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	root := fb.Alloc()
	old := bytes.Repeat([]byte{0xA1}, 256)
	fb.Write(root, old)
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	fresh := [][]byte{bytes.Repeat([]byte{0xB1}, 256), bytes.Repeat([]byte{0xB2}, 200)}
	rebuild := func() (ids []PageID) {
		fb.Begin()
		fb.Free(root)
		for _, data := range fresh {
			id := fb.Alloc()
			fb.Write(id, data)
			ids = append(ids, id)
		}
		return ids
	}
	if ids := rebuild(); ids[0] != root || ids[1] != 1 {
		t.Fatalf("rebuild allocated pages %v, want [%d 1]: the emptied store's page first, then growth", ids, root)
	}
	if got := fb.ReadNoCopy(root); !bytes.Equal(got, fresh[0]) {
		t.Error("the reused page does not read back its transactional content")
	}
	// Crash inside Commit, before the marker (PAGE is appended, STATE dies).
	fb.SetCrashAfterSteps(fb.PersistSteps() + 3)
	expectFaultPanic(t, func() { fb.Commit() })
	fb.Abandon()
	if fb, err = OpenFile(path, 0); err != nil {
		t.Fatal(err)
	}
	if got := fb.ReadNoCopy(root); !bytes.Equal(got, old) {
		t.Fatal("an uncommitted rebuild overwrote the committed page in place")
	}
	if fb.NumPages() != 1 || fb.PagesInUse() != 1 {
		t.Fatalf("recovered %d pages, %d in use; want 1, 1", fb.NumPages(), fb.PagesInUse())
	}

	// The same rebuild, committed and reopened: two dense pages, no hole.
	ids := rebuild()
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != 256+2*(256+8) {
		t.Errorf("file is %d bytes (%v), want header + 2 slots = %d", st.Size(), err, 256+2*(256+8))
	}
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumPages() != 2 || re.PagesInUse() != 2 {
		t.Errorf("%d pages, %d in use; want 2, 2", re.NumPages(), re.PagesInUse())
	}
	for i, id := range ids {
		if got := re.ReadNoCopy(id); !bytes.Equal(got[:len(fresh[i])], fresh[i]) {
			t.Errorf("page %d lost the committed write", id)
		}
	}
	if err := re.Fsck(); err != nil {
		t.Error(err)
	}
}

// TestFileBackendReplaySkipsImagesOfPagesFreedLater: a journaled image of
// a page must not be replayed once a later committed transaction freed the
// page — its next owner wrote it directly (writes to committed-free pages
// bypass the journal), and the old image would clobber that content.
func TestFileBackendReplaySkipsImagesOfPagesFreedLater(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	p := fb.Alloc()
	fb.Write(p, bytes.Repeat([]byte{0x01}, 256))
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	commit := func(fn func()) {
		t.Helper()
		fb.Begin()
		fn()
		if err := fb.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(func() { fb.Write(p, bytes.Repeat([]byte{0x02}, 256)) }) // journaled image of p
	commit(func() { fb.Free(p) })
	final := bytes.Repeat([]byte{0x03}, 256)
	commit(func() {
		if id := fb.Alloc(); id != p {
			t.Fatalf("Alloc = %d, want the committed-free page %d", id, p)
		}
		fb.Write(p, final) // direct write: p is free in the committed state
	})
	fb.Abandon() // crash with all three transactions still in the log

	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if ri := re.RecoveryInfo(); ri == nil || ri.ReplayedTxs != 3 || ri.ReplayedPages != 0 {
		t.Errorf("RecoveryInfo = %+v, want 3 replayed transactions and the stale image skipped", ri)
	}
	if got := re.ReadNoCopy(p); !bytes.Equal(got, final) {
		t.Fatalf("page %d reads %#x..., want the last committed content %#x...", p, got[0], final[0])
	}
}

// TestFileBackendTxPartialWriteKeepsTail: the Backend contract — shorter
// data leaves the page tail untouched — must hold for journaled writes.
func TestFileBackendTxPartialWriteKeepsTail(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := fb.Alloc()
	fb.Write(a, bytes.Repeat([]byte{0xFF}, 256))
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	fb.Begin()
	fb.Write(a, []byte{1, 2, 3}) // journaled partial write
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.ReadNoCopy(a)
	if !bytes.Equal(got[:3], []byte{1, 2, 3}) || got[3] != 0xFF || got[255] != 0xFF {
		t.Errorf("partial journaled write damaged the page tail: % x...", got[:8])
	}
}

// TestFileBackendTxGuardsCheckpointFreelist: a transaction that drains
// the freelist and extends the file overwrites the checkpointed freelist
// trailer's bytes on disk. The state guard journaled at Begin must keep
// the committed freelist recoverable when the transaction never commits.
func TestFileBackendTxGuardsCheckpointFreelist(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		fb.Write(fb.Alloc(), bytes.Repeat([]byte{0xA0 + byte(i)}, 256))
	}
	b := PageID(1)
	fb.Free(b)
	if err := fb.Close(); err != nil { // checkpoint: trailer [b] after page 2's slot
		t.Fatal(err)
	}

	fb, err = OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	fb.Begin()
	if id := fb.Alloc(); id != b { // drains the freelist
		t.Fatalf("Alloc = %d, want recycled %d", id, b)
	}
	d := fb.Alloc() // fresh page 3: its slot starts where the trailer was
	fb.Write(d, bytes.Repeat([]byte{0xD1}, 256))
	fb.Abandon() // crash before Commit

	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NumPages(); got != 3 {
		t.Errorf("NumPages = %d after rollback-by-crash, want 3", got)
	}
	// The committed freelist survived the overwrite of its trailer bytes.
	if id := re.Alloc(); id != b {
		t.Errorf("Alloc = %d, want recycled %d", id, b)
	}
}

// TestFileBackendSyncInsideTx: checkpointing mid-transaction is refused.
func TestFileBackendSyncInsideTx(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 256)
	if err != nil {
		t.Fatal(err)
	}
	fb.Begin()
	if err := fb.Sync(); err == nil {
		t.Fatal("Sync succeeded inside an open transaction")
	}
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileBackendWALTruncatedTail: a committed transaction whose log
// record is physically torn (truncated mid-record by the crash) must not
// replay, and the index opens at the previous committed state.
func TestFileBackendWALTruncatedTail(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := fb.Alloc()
	oldA := bytes.Repeat([]byte{0xA1}, 256)
	fb.Write(a, oldA)
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	fb.Begin()
	fb.Write(a, bytes.Repeat([]byte{0xA2}, 256))
	// Kill at the log fsync (+4): the records are in the OS page cache but
	// never forced down, so losing part of the commit record is exactly
	// what a power cut could do. Crucially the in-place apply (+5) has not
	// run — a real crash can only tear the marker before the apply.
	fb.SetCrashAfterSteps(fb.PersistSteps() + 4)
	expectFaultPanic(t, func() { fb.Commit() })
	walSize := fb.WALStats().Size
	fb.Abandon()

	// Tear the log: drop the last 6 bytes (inside the COMMIT record).
	if err := os.Truncate(walPath(path), walSize-6); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.RecoveryInfo()
	if ri == nil || ri.ReplayedTxs != 0 || ri.TornTailBytes == 0 {
		t.Fatalf("RecoveryInfo = %+v, want a torn tail and no replay", ri)
	}
	if got := re.ReadNoCopy(a); !bytes.Equal(got, oldA) {
		t.Errorf("torn transaction partially applied")
	}
}

// TestFileBackendWALGarbageTail: appended garbage after a clean checkpoint
// is reported and discarded, and the index opens intact.
func TestFileBackendWALGarbageTail(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := fb.Alloc()
	fb.Write(a, bytes.Repeat([]byte{0xA1}, 256))
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	wf, err := os.OpenFile(walPath(path), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Write([]byte("garbage tail")); err != nil {
		t.Fatal(err)
	}
	wf.Close()

	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.RecoveryInfo()
	if ri == nil || ri.TornTailBytes != int64(len("garbage tail")) {
		t.Fatalf("RecoveryInfo = %+v, want %d torn tail bytes", ri, len("garbage tail"))
	}
	if got := re.ReadNoCopy(a); got[0] != 0xA1 {
		t.Errorf("page damaged by garbage log tail")
	}
	// Recovery checkpointed: a second open is clean.
	re.Close()
	re2, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.RecoveryInfo() != nil {
		t.Errorf("second open still reports recovery: %+v", re2.RecoveryInfo())
	}
}

// TestFileBackendWALDuplicateCommitRecord: a duplicated commit marker in
// the log (a retried append) is skipped idempotently on replay.
func TestFileBackendWALDuplicateCommitRecord(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := fb.Alloc()
	fb.Write(a, bytes.Repeat([]byte{0xA1}, 256))
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-craft a log: one committed transaction, its commit marker
	// duplicated, then the same transaction appended again wholesale.
	newA := bytes.Repeat([]byte{0xA2}, 256)
	var body []byte
	body = append(body, encodeWALPage(a, newA)...)
	body = append(body, encodeWALState(1, nil, nil)...)
	body = append(body, encodeWALCommit(1)...)
	body = append(body, encodeWALCommit(1)...)
	body = append(body, encodeWALPage(a, bytes.Repeat([]byte{0xEE}, 256))...)
	body = append(body, encodeWALState(1, nil, nil)...)
	body = append(body, encodeWALCommit(1)...)
	if err := os.WriteFile(walPath(path), append(encodeWALHeader(256), body...), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.RecoveryInfo()
	if ri == nil || ri.ReplayedTxs != 1 || ri.DuplicateCommits != 2 {
		t.Fatalf("RecoveryInfo = %+v, want 1 replayed tx and 2 duplicate commits", ri)
	}
	if got := re.ReadNoCopy(a); !bytes.Equal(got, newA) {
		t.Errorf("page a = %x..., want the first committed image", got[:4])
	}
}

// TestFileBackendWALCorruptFailsOpen: a semantically invalid record with
// a valid checksum is not a crash artifact — Open must refuse with a
// wrapped ErrWALCorrupt and leave the file untouched.
func TestFileBackendWALCorruptFailsOpen(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	fb.Write(fb.Alloc(), bytes.Repeat([]byte{0xA1}, 256))
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	// A commit with no state record: checksums fine, semantics nonsense.
	if err := os.WriteFile(walPath(path),
		append(encodeWALHeader(256), encodeWALCommit(1)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, 0); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Open = %v, want ErrWALCorrupt", err)
	}
}

// TestFileBackendChecksumFlip: flipping one byte of a stored page is
// caught by CheckPage/Fsck (wrapped error) and by Read (panic carrying
// the same sentinel).
func TestFileBackendChecksumFlip(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := fb.Alloc()
	b := fb.Alloc()
	fb.Write(a, bytes.Repeat([]byte{0xA1}, 256))
	fb.Write(b, bytes.Repeat([]byte{0xB1}, 256))
	fb.Free(b)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the middle of page a's data.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	slot := int64(256 + pageTrailerSize)
	off := 256 + int64(a)*slot + 100
	if _, err := f.WriteAt([]byte{0x00}, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenFile(path, 0) // open-time checks are structural, not content
	if err != nil {
		t.Fatal(err)
	}
	defer re.Abandon()
	if err := re.CheckPage(a); !errors.Is(err, ErrChecksum) {
		t.Fatalf("CheckPage = %v, want ErrChecksum", err)
	}
	if err := re.Fsck(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Fsck = %v, want ErrChecksum", err)
	}
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrChecksum) {
			t.Fatalf("Read panic = %v, want error wrapping ErrChecksum", r)
		}
	}()
	re.Read(a, make([]byte, 256))
	t.Fatal("Read returned on a corrupt page")
}

// TestFileBackendFsckSkipsFreePages: corruption on a freelist page is not
// an error — the page holds no live data (e.g. a torn uncommitted write).
func TestFileBackendFsckSkipsFreePages(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := fb.Alloc()
	b := fb.Alloc()
	fb.Write(a, bytes.Repeat([]byte{0xA1}, 256))
	fb.Write(b, bytes.Repeat([]byte{0xB1}, 256))
	fb.Free(b)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	slot := int64(256 + pageTrailerSize)
	if _, err := f.WriteAt([]byte{0xFF}, 256+int64(b)*slot+10); err != nil {
		t.Fatal(err)
	}
	f.Close()
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Fsck(); err != nil {
		t.Fatalf("Fsck flagged a free page: %v", err)
	}
}

// writeV1File hand-crafts a version-1 page file (no trailers, no WAL) as
// an old build would have left it.
func writeV1File(t *testing.T, path string, blockSize int, pages [][]byte, meta []byte, free []PageID) {
	t.Helper()
	buf := make([]byte, blockSize+blockSize*len(pages)+4*len(free))
	copy(buf[0:6], fileMagic[:])
	binary.LittleEndian.PutUint16(buf[6:8], 1)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(blockSize))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(pages)))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(free)))
	binary.LittleEndian.PutUint32(buf[20:24], uint32(len(meta)))
	copy(buf[fileHeaderSize:], meta)
	for i, pg := range pages {
		copy(buf[blockSize+i*blockSize:], pg)
	}
	for i, id := range free {
		binary.LittleEndian.PutUint32(buf[blockSize+len(pages)*blockSize+4*i:], uint32(id))
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFileBackendV1Readable: version-1 files stay fully usable — opened,
// read, transactionally written and re-synced in their own format.
func TestFileBackendV1Readable(t *testing.T) {
	path := tempIndex(t)
	pg0 := bytes.Repeat([]byte{0xAA}, 256)
	pg1 := bytes.Repeat([]byte{0xBB}, 256)
	writeV1File(t, path, 256, [][]byte{pg0, pg1}, []byte("v1 meta"), nil)

	fb, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fb.RecoveryInfo() != nil {
		t.Errorf("clean v1 file reported recovery: %+v", fb.RecoveryInfo())
	}
	if got := fb.ReadNoCopy(0); !bytes.Equal(got, pg0) {
		t.Errorf("v1 page 0 unreadable")
	}
	if got := string(fb.Meta()); got != "v1 meta" {
		t.Errorf("v1 meta = %q", got)
	}
	if err := fb.CheckPage(0); err != nil {
		t.Errorf("CheckPage on v1: %v", err)
	}
	if err := fb.Fsck(); err != nil {
		t.Errorf("Fsck on v1: %v", err)
	}
	// Transactional writes work on v1 files too (journaled, no trailers).
	fb.Begin()
	fb.Write(1, bytes.Repeat([]byte{0xCC}, 256))
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.ReadNoCopy(1); got[0] != 0xCC {
		t.Errorf("v1 committed write lost")
	}
	// The file must still be version 1 (slot math unchanged).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(raw[6:8]); v != 1 {
		t.Errorf("file version rewritten to %d", v)
	}
}

// TestFileBackendWALStats: commit activity shows up in the counters and a
// checkpoint shrinks the log back to its header.
func TestFileBackendWALStats(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	a := fb.Alloc()
	fb.Write(a, bytes.Repeat([]byte{1}, 256))
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := fb.WALStats(); s.Size != walHeaderSize {
		t.Fatalf("WAL size %d after checkpoint, want %d", s.Size, walHeaderSize)
	}
	fb.Begin()
	fb.Write(a, bytes.Repeat([]byte{2}, 256))
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	s := fb.WALStats()
	if s.Records != 3 { // PAGE + STATE + COMMIT
		t.Errorf("WAL records = %d, want 3", s.Records)
	}
	if s.Size <= walHeaderSize || s.Bytes != s.Size-walHeaderSize {
		t.Errorf("WAL stats inconsistent: %+v", s)
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := fb.WALStats(); s.Size != walHeaderSize {
		t.Errorf("WAL size %d after second checkpoint, want %d", s.Size, walHeaderSize)
	}
}
