package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
)

// Tests for logical notes: light commits, what recovery does with a log
// that holds notes, who may retire such a log, the fsync rule of the
// commit path, and the commit gate.

// lightCommit commits one transaction that only logs note.
func lightCommit(t *testing.T, fb *FileBackend, note string) {
	t.Helper()
	fb.Begin()
	fb.Note([]byte(note))
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
}

// notesOf renders recovered notes for comparison.
func notesOf(fb *FileBackend) string {
	var sb bytes.Buffer
	for _, n := range fb.RecoveredNotes() {
		sb.Write(n)
		sb.WriteByte('|')
	}
	return sb.String()
}

// TestFileBackendLightCommit: a transaction that only logs a note commits
// as NOTE + COMMIT — three persistence steps, one log fsync, no page-file
// fsync, no STATE — except as the first transaction of a log generation,
// which carries the state — and, after a checkpoint, the log's first
// extension of zeros, one step more.
func TestFileBackendLightCommit(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	a := fb.Alloc()
	fb.Write(a, bytes.Repeat([]byte{1}, 256))
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}

	type cost struct{ steps, records, bytes, logSyncs, fileSyncs int64 }
	measure := func(fn func()) cost {
		s0, w0, f0 := fb.PersistSteps(), fb.WALStats(), fb.FsyncStats()
		fn()
		s1, w1, f1 := fb.PersistSteps(), fb.WALStats(), fb.FsyncStats()
		return cost{s1 - s0, w1.Records - w0.Records, w1.Bytes - w0.Bytes, f1.Log - f0.Log, f1.PageFile - f0.PageFile}
	}
	note := string(bytes.Repeat([]byte{'n'}, 37))
	first := measure(func() { lightCommit(t, fb, note) })
	if first.records != 3 || first.steps != 5 || first.logSyncs != 1 || first.fileSyncs != 0 {
		t.Errorf("first commit of the generation cost %+v, want the first extension, NOTE+STATE+COMMIT and one log fsync", first)
	}
	if got := walFileSize(t, path); got != walHeaderSize+walExtend {
		t.Fatalf("log file of %d bytes after the first commit, want the header and %d zeros", got, walExtend)
	}
	for i := 0; i < 100; i++ {
		c := measure(func() { lightCommit(t, fb, note) })
		if want := (cost{steps: 3, records: 2, bytes: 63, logSyncs: 1}); c != want {
			t.Fatalf("light commit %d cost %+v, want %+v", i, c, want)
		}
	}
	// Anything besides the note brings the STATE back.
	heavy := measure(func() {
		fb.Begin()
		fb.Note([]byte(note))
		fb.SetMeta([]byte("changed"))
		if err := fb.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if heavy.records != 3 {
		t.Errorf("note + SetMeta committed %d records, want NOTE+STATE+COMMIT", heavy.records)
	}
	// A checkpoint starts a new generation: the next light commit is heavy.
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	if c := measure(func() { lightCommit(t, fb, note) }); c.records != 3 {
		t.Errorf("first commit after a checkpoint logged %d records, want 3", c.records)
	}
}

// TestFileBackendCommitFlushesAnyonesWrites: pages written directly outside
// every transaction are flushed by the next
// STATE-bearing commit — the one that can make them reachable — even when
// that transaction wrote no page itself; light commits in between flush
// only the log.
func TestFileBackendCommitFlushesAnyonesWrites(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	lightCommit(t, fb, "opens the generation")

	p := fb.Alloc() // fresh page, written outside any transaction
	fb.Write(p, bytes.Repeat([]byte{0xB1}, 256))
	f0 := fb.FsyncStats()
	lightCommit(t, fb, "light: references no page")
	if f := fb.FsyncStats(); f.PageFile != f0.PageFile || f.Log != f0.Log+1 {
		t.Fatalf("light commit fsyncs %+v after %+v, want the log only", f, f0)
	}

	fb.Begin()
	fb.SetMeta([]byte("points at p")) // publishes p; the transaction writes no page
	steps := fb.PersistSteps()
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	f := fb.FsyncStats()
	if f.PageFile != f0.PageFile+1 {
		t.Fatalf("publishing commit did %d page-file fsyncs, want 1", f.PageFile-f0.PageFile)
	}
	// The flush is the commit's first step, before any record is appended.
	if got := fb.PersistSteps() - steps; got != 4 {
		t.Errorf("publishing commit took %d steps, want fsync(pages) STATE COMMIT fsync(log)", got)
	}

	// Nothing written since: the next STATE-bearing commit flushes no page.
	fb.Begin()
	fb.SetMeta([]byte("again"))
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := fb.FsyncStats().PageFile; got != f.PageFile {
		t.Errorf("commit with a clean page file did %d page-file fsyncs", got-f.PageFile)
	}
}

// crashedWithNotes builds an index whose log ends in light transactions and
// "kills" the process: a STATE-bearing commit (one page, meta "saved"),
// then notes a, b, c committed one by one, then an uncommitted tail.
func crashedWithNotes(t *testing.T) (path string, page PageID) {
	t.Helper()
	path = tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	fb.Begin()
	page = fb.Alloc()
	fb.Write(page, bytes.Repeat([]byte{0xC1}, 256))
	fb.SetMeta([]byte("saved"))
	fb.Note([]byte("marker"))
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b", "c"} {
		lightCommit(t, fb, n)
	}
	fb.Begin()
	fb.Note([]byte("never acknowledged"))
	fb.SetCrashAfterSteps(fb.PersistSteps() + 3) // NOTE, COMMIT written; the fsync dies
	expectFaultPanic(t, func() { fb.Commit() })
	fb.Abandon()
	// What a power cut does to an unsynced commit marker: tear it.
	end := walRecordsEnd(t, path)
	tearWAL(t, path, end-5, end)
	return path, page
}

// TestFileBackendRecoversNotes: Open hands back the committed notes in
// commit order, keeps the log — cut at its last commit marker — instead of
// checkpointing it away, and appends later commits to it; once the owner
// has consumed the notes, a checkpoint retires the log.
func TestFileBackendRecoversNotes(t *testing.T) {
	path, page := crashedWithNotes(t)
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := notesOf(re); got != "marker|a|b|c|" {
		t.Fatalf("recovered notes %q, want marker|a|b|c|", got)
	}
	ri := re.RecoveryInfo()
	if ri == nil || ri.ReplayedTxs != 4 || ri.TornTailBytes == 0 || ri.DiscardedRecords != 1 {
		t.Errorf("RecoveryInfo = %+v, want 4 replayed txs, 1 discarded record, a torn tail", ri)
	}
	if string(re.Meta()) != "saved" || re.NumPages() != 1 {
		t.Errorf("state = meta %q, %d pages; want the last STATE's", re.Meta(), re.NumPages())
	}
	kept := re.WALStats().Size
	if st, _ := os.Stat(walPath(path)); st.Size() != kept || kept <= walHeaderSize {
		t.Fatalf("log is %d bytes on disk, %d in the handle: want it kept and cut at the last commit", st.Size(), kept)
	}

	// The owner applies a..c, saves, and logs the marker that says so.
	re.Begin()
	re.SetMeta([]byte("saved again"))
	re.Note([]byte("marker"))
	if err := re.Commit(); err != nil {
		t.Fatal(err)
	}
	re.Abandon() // dies before consuming: the log still holds everything

	re, err = OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := notesOf(re); got != "marker|a|b|c|marker|" {
		t.Fatalf("second recovery found notes %q", got)
	}
	if string(re.Meta()) != "saved again" {
		t.Errorf("meta %q after the second recovery", re.Meta())
	}
	re.ConsumeNotes()
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if st, _ := os.Stat(walPath(path)); st.Size() != walHeaderSize {
		t.Errorf("log is %d bytes after the owner consumed its notes and closed", st.Size())
	}
	re, err = OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.RecoveryInfo() != nil || re.RecoveredNotes() != nil {
		t.Errorf("clean reopen reports recovery %+v, notes %q", re.RecoveryInfo(), notesOf(re))
	}
	if got := re.ReadNoCopy(page); !bytes.Equal(got, bytes.Repeat([]byte{0xC1}, 256)) {
		t.Errorf("page lost across the recoveries")
	}
}

// TestFileBackendUnconsumedNotesOutliveTheHandle: a handle that never looks
// at the recovered notes cannot destroy them — neither Sync nor Close
// retires the log, however often the file is opened.
func TestFileBackendUnconsumedNotesOutliveTheHandle(t *testing.T) {
	path, _ := crashedWithNotes(t)
	for round, withSync := range []bool{false, true, true} {
		fb, err := OpenFile(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if withSync {
			if err := fb.Sync(); err != nil {
				t.Fatalf("round %d: Sync: %v", round, err)
			}
		}
		if err := fb.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
	}
	fb, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Abandon()
	if got := notesOf(fb); got != "marker|a|b|c|" {
		t.Fatalf("after three careless handles the notes are %q", got)
	}
	if string(fb.Meta()) != "saved" {
		t.Errorf("meta %q, want the last STATE's", fb.Meta())
	}
}

// TestFileBackendVersion1Log: a log written by a build that knew no NOTE
// records is replayed as before, and the sidecar it leaves is stamped with
// the version whose records this build appends.
func TestFileBackendVersion1Log(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := fb.Alloc()
	oldA := bytes.Repeat([]byte{0xA1}, 256)
	fb.Write(a, oldA)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	hdr := encodeWALHeader(256)
	binary.LittleEndian.PutUint16(hdr[6:8], 1)
	body := walTxBytes(1, 1, nil, []byte("v1"))
	if err := os.WriteFile(walPath(path), append(hdr, body...), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if ri := re.RecoveryInfo(); ri == nil || ri.ReplayedTxs != 1 {
		t.Fatalf("RecoveryInfo = %+v, want the version-1 transaction replayed", ri)
	}
	if got := re.ReadNoCopy(a); !bytes.Equal(got, oldA) || string(re.Meta()) != "v1" {
		t.Errorf("version-1 transaction not applied")
	}
	raw, err := os.ReadFile(walPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(raw[6:8]); len(raw) != walHeaderSize || v != walVersion {
		t.Errorf("sidecar after recovery: %d bytes, version %d; want an empty version-%d log", len(raw), v, walVersion)
	}
}

// TestFileBackendLightTxSkipsAllocatorSnapshot: Begin no longer copies the
// freelist nor builds the committed-free set; a transaction that only logs
// a note never needs them, so its cost does not grow with the freelist.
func TestFileBackendLightTxSkipsAllocatorSnapshot(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	ids := make([]PageID, 1000)
	for i := range ids {
		ids[i] = fb.Alloc()
	}
	for _, id := range ids {
		fb.Free(id)
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	lightCommit(t, fb, "opens the generation")
	note := bytes.Repeat([]byte{'n'}, 37)
	const runs = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fb.Begin()
		fb.Note(note)
		if err := fb.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	// A copy of 1,000 page ids alone is 4 KB, the set some 40 KB.
	if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per > 2048 {
		t.Errorf("a light transaction beside 1,000 free pages allocates %d bytes", per)
	}
	// The snapshot is still taken when needed: rollback restores the list.
	fb.Begin()
	got := fb.Alloc()
	fb.Rollback()
	if again := fb.Alloc(); again != got {
		t.Errorf("Alloc after rollback = %d, want %d back", again, got)
	}
}

// TestFileBackendCommitGate is the interleaving a commit that lets go of
// the allocator lock during its fsync must survive (run with -race): a
// producer outside every transaction allocates, writes and frees pages
// while transactions commit. No page may
// be handed out twice, and every page must read back what its owner wrote
// last, whether or not a transaction happened to be open.
func TestFileBackendCommitGate(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	// Free pages to recycle, so allocations race with the freelist too.
	var spare []PageID
	for i := 0; i < 64; i++ {
		spare = append(spare, fb.Alloc())
	}
	for _, id := range spare {
		fb.Free(id)
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}

	const builders, rounds, batch = 2, 40, 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	owned := make([]map[PageID]byte, builders)
	for b := 0; b < builders; b++ {
		owned[b] = make(map[PageID]byte)
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			mine := owned[b]
			for r := 0; r < rounds; r++ {
				var ids []PageID
				for i := 0; i < batch; i++ {
					ids = append(ids, fb.Alloc())
				}
				for _, id := range ids {
					// Twice: the second write may find a transaction that
					// began after the allocation.
					fb.Write(id, bytes.Repeat([]byte{0xFF}, 256))
					v := byte(1 + (int(id)+r)%250)
					fb.Write(id, bytes.Repeat([]byte{v}, 256))
					mine[id] = v
				}
				// Give some back.
				for _, id := range ids[:batch/4] {
					fb.Free(id)
					delete(mine, id)
				}
			}
		}(b)
	}
	committer := make(chan error, 1)
	go func() {
		defer close(committer)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fb.Begin()
			fb.Note([]byte("n"))
			if i%5 == 4 {
				fb.SetMeta([]byte(fmt.Sprint(i))) // a STATE-bearing commit now and then
			}
			if err := fb.Commit(); err != nil {
				committer <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-committer; err != nil {
		t.Fatal(err)
	}

	seen := make(map[PageID]int)
	buf := make([]byte, 256)
	for b, mine := range owned {
		for id, v := range mine {
			if other, dup := seen[id]; dup {
				t.Fatalf("page %d handed to builders %d and %d", id, other, b)
			}
			seen[id] = b
			fb.Read(id, buf)
			if !bytes.Equal(buf, bytes.Repeat([]byte{v}, 256)) {
				t.Fatalf("page %d reads %x.., its owner wrote %x", id, buf[:2], v)
			}
		}
	}
	if want := builders * rounds * (batch - batch/4); len(seen) != want || fb.PagesInUse() != want {
		t.Errorf("%d pages owned, %d in use, want %d", len(seen), fb.PagesInUse(), want)
	}
}
