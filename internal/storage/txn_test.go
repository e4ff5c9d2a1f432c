package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
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

// walRecordsEnd returns the file offset at which the records of the log
// beside the page file at path end. What follows is the zeros written ahead
// of them, or nothing: the file's size says nothing about where the log
// ends.
func walRecordsEnd(t *testing.T, path string) int64 {
	t.Helper()
	data, err := os.ReadFile(walPath(path))
	if err != nil {
		t.Fatal(err)
	}
	off := walHeaderSize
	for {
		_, _, size, ok := nextWALRecord(data[off:])
		if !ok {
			return int64(off)
		}
		off += size
	}
}

// tearWAL zeros the log bytes [from, to) beside the page file at path:
// what a power cut can leave of records whose fsync never ran.
func tearWAL(t *testing.T, path string, from, to int64) {
	t.Helper()
	f, err := os.OpenFile(walPath(path), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, to-from), from); err != nil {
		t.Fatal(err)
	}
}

// walFileSize returns the size of the log file beside the page file at
// path: its records and the zeros written ahead of them.
func walFileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(walPath(path))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestFileBackendTxCommitDurable: committed transactions survive a process
// that dies without ever checkpointing — the log's last state is adopted,
// and the pages it reaches hold what was written, including a page one
// transaction freed and the next one reused.
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
	fb.Free(b)
	c := fb.Alloc() // b is still the rollback target: the file grows
	fb.Write(c, bytes.Repeat([]byte{0xC1}, 100))
	fb.SetMeta([]byte("after"))
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	fb.Begin()
	d := fb.Alloc() // b, free in the committed state now
	if d != b {
		t.Fatalf("Alloc = %d, want the committed-free page %d", d, b)
	}
	newB := bytes.Repeat([]byte{0xB2}, 256)
	fb.Write(d, newB)
	fb.SetMeta([]byte("reused"))
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
	if ri == nil || ri.ReplayedTxs != 2 {
		t.Fatalf("RecoveryInfo = %+v, want 2 replayed txs", ri)
	}
	if got := re.ReadNoCopy(a); !bytes.Equal(got, bytes.Repeat([]byte{0xA1}, 256)) {
		t.Errorf("page a lost its bytes")
	}
	if got := re.ReadNoCopy(c)[:100]; !bytes.Equal(got, bytes.Repeat([]byte{0xC1}, 100)) {
		t.Errorf("fresh page c lost the committed write")
	}
	if got := re.ReadNoCopy(b); !bytes.Equal(got, newB) {
		t.Errorf("reused page b reads %#x..., want its last committed content %#x...", got[0], newB[0])
	}
	if got := string(re.Meta()); got != "reused" {
		t.Errorf("meta = %q, want %q", got, "reused")
	}
	if re.NumPages() != 3 || re.PagesInUse() != 3 {
		t.Errorf("%d pages, %d in use; want 3, 3", re.NumPages(), re.PagesInUse())
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
	fb.Free(a)
	fb.Write(fb.Alloc(), bytes.Repeat([]byte{0xA2}, 256))
	fb.SetMeta([]byte("after"))
	// Kill inside Commit at the log fsync — +1 flushes the page file, +2
	// writes the log's first extension, +3 writes STATE and COMMIT, +4
	// dies — and lose the commit marker the way a power cut can: the
	// STATE record reached the disk, the COMMIT record's bytes did not.
	fb.SetCrashAfterSteps(fb.PersistSteps() + 4)
	expectFaultPanic(t, func() { fb.Commit() })
	fb.Abandon()
	end := walRecordsEnd(t, path)
	tearWAL(t, path, end-walRecOverhead-8, end)

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
		t.Errorf("page a lost its committed bytes")
	}
	if got := string(re.Meta()); got != "before" {
		t.Errorf("meta = %q, want %q", got, "before")
	}
	if re.NumPages() != 1 || re.PagesInUse() != 1 {
		t.Errorf("%d pages, %d in use; want 1, 1", re.NumPages(), re.PagesInUse())
	}
}

// TestFileBackendTxRollback: Rollback ends the handle. It restores
// nothing: what the transaction wrote stays readable, run included. The
// failed handle's Begin opens nothing and its writes are skipped, Commit
// and Sync fail, its Close writes nothing, and the file reopens to the
// last commit.
func TestFileBackendTxRollback(t *testing.T) {
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
	fb.Free(a)
	c := fb.Alloc()
	fb.Write(c, bytes.Repeat([]byte{0xA2}, 256))
	fb.SetMeta([]byte("doomed"))
	fb.Rollback()
	if got := fb.ReadNoCopy(c); got[0] != 0xA2 {
		t.Errorf("the rolled-back transaction's page reads %#x, want its write", got[0])
	}
	files := func() []byte {
		page, err1 := os.ReadFile(path)
		log, err2 := os.ReadFile(walPath(path))
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		return append(page, log...)
	}
	before := files()

	fb.Begin() // opens nothing
	fb.Write(fb.Alloc(), bytes.Repeat([]byte{0xA3}, 256))
	if err := fb.Commit(); err == nil {
		t.Error("Commit on a failed handle succeeded")
	}
	if err := fb.Sync(); err == nil {
		t.Error("Sync on a failed handle succeeded")
	}
	if err := fb.Close(); err != nil {
		t.Fatalf("Close of a failed handle = %v, want nil", err)
	}
	if err := fb.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if !bytes.Equal(files(), before) {
		t.Error("Close of a failed handle wrote to its files")
	}

	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.ReadNoCopy(a); !bytes.Equal(got, oldA) {
		t.Errorf("the rolled-back transaction damaged page a")
	}
	if re.NumPages() != 1 || re.PagesInUse() != 1 {
		t.Errorf("reopened with %d pages, %d in use; want 1, 1", re.NumPages(), re.PagesInUse())
	}
	if got := string(re.Meta()); got != "before" {
		t.Errorf("reopened meta = %q, want %q", got, "before")
	}
}

// TestFileBackendFailedWriteFailsHandle: a write the OS refuses — a page
// run's pwrite, a log append, the log extension of Begin's re-journaled
// checkpoint, a checkpoint's header rewrite — fails the handle with its
// error, not a panic. The handle then persists nothing: Begin opens
// nothing, its writes are skipped, Commit and Sync return the error, Close
// returns nil twice and leaves the files as the failure did, and they
// reopen to the last commit. A file the handle can only read makes the
// fault: its descriptor is swapped for a read-only one.
func TestFileBackendFailedWriteFailsHandle(t *testing.T) {
	readOnly := func(t *testing.T, f **os.File) {
		ro, err := os.Open((*f).Name())
		if err != nil {
			t.Fatal(err)
		}
		rw := *f
		t.Cleanup(func() { rw.Close() })
		*f = ro
	}
	for _, c := range []struct {
		name, step string
		fail       func(t *testing.T, fb *FileBackend) error
	}{
		{"run", "writing page", func(t *testing.T, fb *FileBackend) error {
			readOnly(t, &fb.f)
			fb.Begin()
			id := fb.Alloc()
			fb.Write(id, pageBytes(id))
			return fb.Commit()
		}},
		{"log-append", "appending to write-ahead log", func(t *testing.T, fb *FileBackend) error {
			readOnly(t, &fb.wal)
			fb.Begin()
			fb.Note([]byte("note"))
			return fb.Commit()
		}},
		{"log-extension", "extending write-ahead log", func(t *testing.T, fb *FileBackend) error {
			readOnly(t, &fb.wal)
			fb.Begin() // re-journals the checkpoint's free list, in a new extension
			return fb.Commit()
		}},
		{"checkpoint", "writing page-file header", func(t *testing.T, fb *FileBackend) error {
			readOnly(t, &fb.f)
			return fb.Sync()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := tempIndex(t)
			fb, err := CreateFile(path, 512)
			if err != nil {
				t.Fatal(err)
			}
			fb.Begin()
			for i := 0; i < 3; i++ {
				id := fb.Alloc()
				fb.Write(id, pageBytes(id))
			}
			fb.Free(0)
			fb.SetMeta([]byte("committed"))
			if err := fb.Commit(); err != nil {
				t.Fatal(err)
			}
			if c.name == "log-extension" {
				if err := fb.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			err = c.fail(t, fb)
			var pathErr *os.PathError
			if !errors.As(err, &pathErr) || !strings.Contains(err.Error(), c.step) {
				t.Fatalf("the failing call returned %v, want the OS error of %s", err, c.step)
			}
			fb.Rollback()
			failed := append(readFile(t, path), readFile(t, walPath(path))...)
			fb.Begin()
			id := fb.Alloc()
			fb.Write(id, pageBytes(id))
			fb.Note([]byte("later"))
			if got := fb.Commit(); got != err {
				t.Errorf("a later Commit returned %v, want the failed write's %v", got, err)
			}
			if got := fb.Sync(); got != err {
				t.Errorf("a later Sync returned %v, want the failed write's %v", got, err)
			}
			for i := 0; i < 2; i++ {
				if err := fb.Close(); err != nil {
					t.Errorf("Close %d = %v, want nil", i+1, err)
				}
			}
			if !bytes.Equal(append(readFile(t, path), readFile(t, walPath(path))...), failed) {
				t.Error("the failed handle wrote to its files")
			}
			re, err := OpenFile(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.NumPages() != 3 || re.PagesInUse() != 2 || string(re.Meta()) != "committed" {
				t.Errorf("reopened with %d pages, %d in use, meta %q; want 3, 2, %q",
					re.NumPages(), re.PagesInUse(), re.Meta(), "committed")
			}
			if err := re.Fsck(); err != nil {
				t.Error(err)
			}
		})
	}
}

// readFile returns the bytes of the file at path.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
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

// TestFileBackendTxPartialWriteKeepsTail: the Backend contract — shorter
// data leaves the page tail untouched — holds for writes in a transaction,
// across the commit and a reopen.
func TestFileBackendTxPartialWriteKeepsTail(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	fb.Begin()
	a := fb.Alloc()
	fb.Write(a, bytes.Repeat([]byte{0xFF}, 256))
	fb.Write(a, []byte{1, 2, 3}) // partial write
	fb.SetMeta([]byte("points at a"))
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
		t.Errorf("partial write damaged the page tail: % x...", got[:8])
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
	fb.Free(a)
	fb.Write(fb.Alloc(), bytes.Repeat([]byte{0xA2}, 256))
	// Kill at the log fsync (+4, after the page-file flush, the log's first
	// extension and the write of STATE and COMMIT): the records are in the
	// OS page cache but never forced down, so losing part of the commit
	// record is exactly what a power cut could do.
	fb.SetCrashAfterSteps(fb.PersistSteps() + 4)
	expectFaultPanic(t, func() { fb.Commit() })
	fb.Abandon()

	// Tear the log: zero the last 6 bytes of its last record (inside the
	// COMMIT record).
	end := walRecordsEnd(t, path)
	tearWAL(t, path, end-6, end)
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.RecoveryInfo()
	if ri == nil || ri.ReplayedTxs != 0 || ri.TornTailBytes == 0 {
		t.Fatalf("RecoveryInfo = %+v, want a torn tail and no replay", ri)
	}
	if got := re.ReadNoCopy(a); !bytes.Equal(got, oldA) || re.NumPages() != 1 || re.PagesInUse() != 1 {
		t.Errorf("torn transaction partially applied: %d pages, %d in use", re.NumPages(), re.PagesInUse())
	}
}

// TestFileBackendWALExtensionCrash: light commits big enough to cross the
// log's extensions at 64 KiB and 128 KiB, killed at the two steps only a
// commit that extends the log has — the extension's pwrite, and the fsync
// of the commit that carries it. Every reopen must hand back exactly the
// acknowledged commits' notes, in order, and report no torn tail: the
// zeros ahead of the records are not one. Killed at its fsync, the
// commit's records are in the file as the process left them, so it comes
// back too; torn the way a power cut can tear it — its records zeroed, the
// extension gone — it must not.
func TestFileBackendWALExtensionCrash(t *testing.T) {
	note := func(i int) []byte { return []byte(fmt.Sprintf("%04d%s", i, bytes.Repeat([]byte{'x'}, 1000))) }
	type cost struct{ steps, logSyncs, fileSyncs int64 }

	// A dry run finds the commits that extend the log and prices them.
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	var extending []int
	for i := 0; len(extending) < 3; i++ {
		size, s0, f0 := walFileSize(t, path), fb.PersistSteps(), fb.FsyncStats()
		lightCommit(t, fb, string(note(i)))
		if walFileSize(t, path) == size {
			continue
		}
		extending = append(extending, i)
		f1 := fb.FsyncStats()
		c := cost{fb.PersistSteps() - s0, f1.Log - f0.Log, f1.PageFile - f0.PageFile}
		if want := (cost{steps: 3, logSyncs: 1}); i > 0 && c != want {
			t.Errorf("commit %d extends the log at a cost of %+v, want %+v", i, c, want)
		}
	}
	if got, want := walFileSize(t, path), int64(walHeaderSize+3*walExtend); extending[0] != 0 || got != want {
		t.Fatalf("extensions at commits %v leave a %d-byte log, want the first commit's and %d bytes", extending, got, want)
	}
	fb.Abandon()

	for _, victim := range extending[1:] {
		for _, kill := range []struct {
			name     string
			at       int64 // steps into the commit: extension, NOTE and COMMIT, fsync
			powerCut bool
		}{{"extension", 1, false}, {"fsync", 3, false}, {"fsync+power-cut", 3, true}} {
			path := tempIndex(t)
			fb, err := CreateFile(path, 256)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < victim; i++ {
				lightCommit(t, fb, string(note(i)))
			}
			recordsEnd, fileEnd := fb.WALStats().Size, walFileSize(t, path)
			fb.Begin()
			fb.Note(note(victim))
			fb.SetCrashAfterSteps(fb.PersistSteps() + kill.at)
			expectFaultPanic(t, func() { fb.Commit() })
			fb.Abandon()
			want := victim
			switch {
			case kill.powerCut:
				tearWAL(t, path, recordsEnd, fileEnd)
				if err := os.Truncate(walPath(path), fileEnd); err != nil {
					t.Fatal(err)
				}
			case kill.at == 3:
				want++
			}

			re, err := OpenFile(path, 0)
			if err != nil {
				t.Fatalf("commit %d killed at its %s: %v", victim, kill.name, err)
			}
			got := re.RecoveredNotes()
			ok := len(got) == want
			for i := 0; ok && i < want; i++ {
				ok = bytes.Equal(got[i], note(i))
			}
			if ri := re.RecoveryInfo(); !ok || ri == nil || ri.ReplayedTxs != want || ri.TornTailBytes != 0 || ri.DiscardedRecords != 0 {
				t.Errorf("commit %d killed at its %s: %d notes back (intact %v), recovery %+v; want the %d acknowledged, no torn tail",
					victim, kill.name, len(got), ok, ri, want)
			}
			re.Abandon()
		}
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
	wf, err := os.OpenFile(walPath(path), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.WriteAt([]byte("garbage tail"), walRecordsEnd(t, path)); err != nil {
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
	fb.Write(fb.Alloc(), bytes.Repeat([]byte{0xA1}, 256))
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-craft a log: one committed transaction, its commit marker
	// duplicated, then the same transaction appended again wholesale.
	var body []byte
	body = append(body, encodeWALState(1, nil, []byte("first"))...)
	body = append(body, encodeWALCommit(1)...)
	body = append(body, encodeWALCommit(1)...)
	body = append(body, encodeWALState(1, nil, []byte("again"))...)
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
	if got := string(re.Meta()); got != "first" {
		t.Errorf("meta = %q, want the first committed state's", got)
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

	// A committed in-place update of an earlier build: a page image, its
	// state, its marker. Open refuses it and leaves the log for that build.
	log := append(encodeWALHeader(256), bytes.Join([][]byte{
		walPageRecord(0, bytes.Repeat([]byte{0xA2}, 256)), encodeWALState(1, nil, nil), encodeWALCommit(1),
	}, nil)...)
	if err := os.WriteFile(walPath(path), log, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, 0); !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), "earlier build") {
		t.Fatalf("Open of a log holding a page image = %v, want ErrWALCorrupt naming the earlier build", err)
	}
	if kept, err := os.ReadFile(walPath(path)); err != nil || !bytes.Equal(kept, log) {
		t.Errorf("the refused log was changed (%v)", err)
	}
}

// TestFileBackendWALStateBeyondFile: a logged STATE is held to the flush
// rule. One that claims 2^30 pages over a fresh file fails Open with
// ErrWALCorrupt and leaves both files as they were — before, it opened and
// its checkpoint extended the file, sparse, to 283 GB. A state whose pages
// past the file's last whole slot are all free still opens.
func TestFileBackendWALStateBeyondFile(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	fb.Write(fb.Alloc(), bytes.Repeat([]byte{0xA1}, 256))
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	sizes := func() (int64, int64) {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		wst, err := os.Stat(walPath(path))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size(), wst.Size()
	}
	writeLog := func(numPages int, free []PageID) {
		t.Helper()
		log := append(encodeWALHeader(256), walTxBytes(1, numPages, free, nil)...)
		if err := os.WriteFile(walPath(path), log, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	writeLog(1<<30, nil)
	size, walSize := sizes()
	if _, err := OpenFile(path, 0); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Open of a state of 2^30 pages over a one-page file = %v, want ErrWALCorrupt", err)
	}
	if s, w := sizes(); s != size || w != walSize {
		t.Errorf("the refused open changed the files: %d and %d bytes, were %d and %d", s, w, size, walSize)
	}

	// Pages 1 and 2 lie past the file's one slot; 2 is free, 1 is not.
	writeLog(3, []PageID{2})
	if _, err := OpenFile(path, 0); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Open of a state reaching an unflushed page = %v, want ErrWALCorrupt", err)
	}
	writeLog(3, []PageID{1, 2})
	fb, err = OpenFile(path, 0)
	if err != nil {
		t.Fatalf("Open of a state whose pages past the file are free: %v", err)
	}
	if got := fb.PagesInUse(); got != 1 {
		t.Errorf("%d pages in use, want 1", got)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
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
func writeV1File(t *testing.T, path string, blockSize int, pages [][]byte, meta []byte) {
	t.Helper()
	buf := make([]byte, blockSize+blockSize*len(pages))
	copy(buf[0:6], fileMagic[:])
	binary.LittleEndian.PutUint16(buf[6:8], 1)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(blockSize))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(pages)))
	binary.LittleEndian.PutUint32(buf[20:24], uint32(len(meta)))
	copy(buf[fileHeaderSize:], meta)
	for i, pg := range pages {
		copy(buf[blockSize+i*blockSize:], pg)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFileBackendV1Rejected: a version-1 file (no trailers) fails Open
// with ErrBadVersion, and the rejected open neither changes it nor leaves
// a log beside it.
func TestFileBackendV1Rejected(t *testing.T) {
	path := tempIndex(t)
	pg := bytes.Repeat([]byte{0xAA}, 256)
	writeV1File(t, path, 256, [][]byte{pg, pg}, []byte("v1 meta"))
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fb, err := OpenFile(path, 0); !errors.Is(err, ErrBadVersion) {
		if fb != nil {
			fb.Close()
		}
		t.Fatalf("OpenFile = %v, want ErrBadVersion", err)
	}
	if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, want) {
		t.Errorf("rejected open changed the file (%v)", err)
	}
	if _, err := os.Stat(walPath(path)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("rejected open left a log: %v", err)
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
	fb.Free(a)
	fb.Write(fb.Alloc(), bytes.Repeat([]byte{2}, 256))
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	s := fb.WALStats()
	if s.Records != 2 { // STATE + COMMIT: no page image, ever
		t.Errorf("WAL records = %d, want 2", s.Records)
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
