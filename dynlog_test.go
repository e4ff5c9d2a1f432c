package prtree

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"prtree/internal/storage"
)

// Tests for the dynamic index's logged mutations: what a mutation costs
// between two saves of the state, that Close and Sync save atomically,
// that recovery's own re-apply can be killed at every step, and that a
// log holding notes survives handles that do not understand it.

// expectInjectedCrash runs fn and reports whether it died of an injected
// fault; any other panic fails the test.
func expectInjectedCrash(t *testing.T, what string, fn func() error) (crashed bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok || !errors.Is(err, storage.ErrInjectedFault) {
				t.Fatalf("%s: panic %v, want ErrInjectedFault", what, r)
			}
			crashed = true
		}
	}()
	if err := fn(); err != nil {
		if !errors.Is(err, storage.ErrInjectedFault) {
			t.Fatalf("%s: %v", what, err)
		}
		return true
	}
	return false
}

// TestDynamicCloseSyncCrashEveryStep: Close and Sync rewrite the state
// pages, and used to do so outside any transaction — the committed chains'
// pages were freed, handed out again and overwritten in place before the
// checkpoint's header was durable, so a crash inside Close left a log that
// still pointed at the old chain heads and an index that did not open.
// Kill both at every persistence step; the reopen must succeed and hold
// exactly the last committed state.
func TestDynamicCloseSyncCrashEveryStep(t *testing.T) {
	dir := t.TempDir()
	opts := &Options{BlockSize: 512}
	seed := filepath.Join(dir, "seed.prd")
	d, err := CreateDynamic(seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	items := crashItems(r, 5*d.Base()/2, 0)
	for _, it := range items {
		d.Insert(it)
	}
	// Two that already sit in levels: tombstones. With the half-full buffer
	// both state chains are non-empty.
	d.Delete(items[0])
	d.Delete(items[d.Base()+1])
	dynCrashBackend(t, d).Abandon() // dies without Close: the log is the state
	killCloseAndSync(t, seed, opts, crashItems(r, 1, 7000)[0], 1)
}

// syncOrCloseRun is what an uninterrupted Sync or Close did to the file.
type syncOrCloseRun struct {
	steps, walRecords           int64
	pagesBefore                 int
	pagesAfter, pagesInUseAfter int
}

// killCloseAndSync opens the index a dead process left at seed, commits one
// more insert and kills Close, then Sync, before every stride-th of their
// persistence steps. Every reopen must find the last committed state and a
// clean scrub. It returns what the uninterrupted run of each did.
func killCloseAndSync(t *testing.T, seed string, opts *Options, extra Item, stride int64) map[string]syncOrCloseRun {
	t.Helper()
	runs := make(map[string]syncOrCloseRun)
	for _, op := range []string{"Close", "Sync"} {
		work := filepath.Join(filepath.Dir(seed), op+".prd")
		survived := false
		for k := int64(1); !survived; k += stride {
			if k > 2000 {
				t.Fatalf("%s still crashing after %d steps", op, k)
			}
			copyCrashFiles(t, seed, work)
			victim, err := OpenDynamic(work, opts)
			if err != nil {
				t.Fatalf("%s step %d: open: %v", op, k, err)
			}
			victim.Insert(extra) // one more committed mutation: the state to find
			want := dynDigest(t, victim)
			fb := dynCrashBackend(t, victim)
			run := syncOrCloseRun{steps: -fb.PersistSteps(), walRecords: -fb.WALStats().Records}
			run.pagesBefore, _ = victim.PageCounts()
			fb.SetCrashAfterSteps(fb.PersistSteps() + k)
			crashed := expectInjectedCrash(t, op, func() error {
				if op == "Sync" {
					return victim.Sync()
				}
				return victim.Close()
			})
			if crashed {
				fb.Abandon()
			} else {
				survived = true
				fb.SetCrashAfterSteps(0)
				run.steps += fb.PersistSteps()
				run.walRecords += fb.WALStats().Records
				if err := victim.Close(); err != nil {
					t.Fatal(err)
				}
			}
			re, err := OpenDynamic(work, opts)
			if err != nil {
				t.Fatalf("%s killed at step %d: reopen: %v", op, k, err)
			}
			if got := dynDigest(t, re); got != want {
				t.Fatalf("%s killed at step %d: reopened to digest %08x, last committed state is %08x (recovery: %v)",
					op, k, got, want, re.Recovery())
			}
			if err := re.CheckPages(); err != nil {
				t.Fatalf("%s killed at step %d: checksum scrub: %v", op, k, err)
			}
			if survived {
				run.pagesAfter, run.pagesInUseAfter = re.PageCounts()
				runs[op] = run
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return runs
}

// TestDynamicMutationBudget: between two carries — BufferCap() inserts
// apart, as the index stands — a durable mutation is one small log record
// — 3 persistence steps (NOTE, COMMIT, fsync), no page write, at most 64
// log bytes, one log fsync — whatever the buffer and the tombstone set
// hold, and the one that writes the log's next extension of zeros costs
// one step more; Sync right after one is the save transaction plus the
// checkpoint, and one more commit when it moves the file's tail into its
// holes.
func TestDynamicMutationBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "budget.prd")
	opts := &Options{BlockSize: 512}
	d, err := CreateDynamic(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	items := crashItems(r, 2*d.Base(), 0)
	for _, it := range items {
		d.Insert(it) // two doublings; ends right after the second carry: the buffer is empty
	}
	room := d.BufferCap()
	if d.BufferLen() != 0 || room != len(items) {
		t.Fatalf("buffer holds %d items of %d, want the state right after a carry: none of %d", d.BufferLen(), room, len(items))
	}
	fb := dynCrashBackend(t, d)
	type cost struct{ steps, writes, walBytes, walRecords, logSyncs, fileSyncs int64 }
	measure := func(fn func()) cost {
		s0, io0, w0, f0 := fb.PersistSteps(), d.IOStats(), fb.WALStats(), fb.FsyncStats()
		fn()
		io1, w1, f1 := d.IOStats(), fb.WALStats(), fb.FsyncStats()
		return cost{fb.PersistSteps() - s0, int64(io1.Writes - io0.Writes), w1.Bytes - w0.Bytes,
			w1.Records - w0.Records, f1.Log - f0.Log, f1.PageFile - f0.PageFile}
	}
	light := cost{steps: 3, walBytes: 63, walRecords: 2, logSyncs: 1}
	absent := Item{Rect: NewRect(0.5, 0.5, 0.6, 0.6), ID: 99999}
	more := crashItems(r, room-1, 4000)
	for i, it := range more {
		if c := measure(func() { d.Insert(it) }); c != light {
			t.Fatalf("insert %d of %d between carries cost %+v, want %+v", i, room-1, c, light)
		}
		switch i {
		case 2: // an item in a level: a tombstone
			if c := measure(func() { d.Delete(items[1]) }); c != light {
				t.Fatalf("tombstoning delete cost %+v, want %+v", c, light)
			}
		case 3: // an item in the buffer: removed physically
			if c := measure(func() { d.Delete(more[0]) }); c != light {
				t.Fatalf("buffer delete cost %+v, want %+v", c, light)
			}
		case 4: // nothing to delete: logged all the same
			var ok bool
			if c := measure(func() { ok = d.Delete(absent) }); c != light || ok {
				t.Fatalf("delete of an absent item = %v, cost %+v; want false, %+v", ok, c, light)
			}
		case 5: // a revive: the tombstone goes
			if c := measure(func() { d.Insert(items[1]) }); c != light {
				t.Fatalf("reviving insert cost %+v, want %+v", c, light)
			}
		}
	}
	if light.walBytes > 64 {
		t.Fatalf("a light mutation logs %d bytes, budget 64", light.walBytes)
	}
	// The buffer delete left room for one more light insert; the one after
	// it fills the buffer and carries: the state is saved with the level.
	last := crashItems(r, 4, 8000)
	if c := measure(func() { d.Insert(last[0]) }); c != light {
		t.Fatalf("last insert before the carry cost %+v, want %+v", c, light)
	}
	if c := measure(func() { d.Insert(last[1]) }); c.writes == 0 || c.walRecords < 3 || c.fileSyncs != 1 || d.BufferLen() != 0 {
		t.Errorf("carrying insert cost %+v and left %d items in the buffer; want page writes, a STATE, an empty buffer", c, d.BufferLen())
	}
	d.Insert(last[2])

	// Sync right after a committed mutation, over a file whose carries left
	// the level in its tail and holes below: the save transaction — one
	// buffer page; the revive emptied the tombstone set — then one more
	// STATE-bearing commit for the level pages copied into the holes, no
	// more of them than the checkpoint then truncates away, and the
	// checkpoint.
	doSync := func() {
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := d.PageCounts()
	moving := measure(doSync)
	total, inUse := d.PageCounts()
	if copies := moving.writes - 1; copies < 1 || copies > int64(before-total) || total != inUse ||
		moving.walRecords != 6 || moving.logSyncs != 3 || moving.fileSyncs != 3 {
		t.Errorf("Sync over a file of %d pages cost %+v and left %d pages, %d in use; want 1 state page, copies no more than the pages returned, two NOTE+STATE+COMMIT, every page in use",
			before, moving, total, inUse)
	}
	// And over a file with nothing above the pages in use, what it always
	// cost: the save transaction, then the checkpoint (header, freelist
	// trailer, fsync, log truncate).
	d.Insert(last[3])
	if sync := measure(doSync); sync.writes != 1 || sync.walRecords != 3 || sync.logSyncs != 2 || sync.fileSyncs != 2 {
		t.Errorf("Sync cost %+v, want 1 state page, NOTE+STATE+COMMIT, and the checkpoint's fsyncs", sync)
	}
	// With no mutation since, the chains on disk are the state's: the save
	// names them again and writes no page.
	if again := measure(doSync); again.writes != 0 {
		t.Errorf("Sync right after Sync cost %+v, want no page written", again)
	}
	if got := fb.WALStats().Size; got != 16 {
		t.Errorf("log is %d bytes after Sync, want the bare header", got)
	}

	// The first commit after the Sync writes the log's first extension of
	// zeros; light mutations then fill it, each at the same cost, until one
	// writes the next extension: one step more — its pwrite — and no more
	// fsyncs.
	walFile := func() int64 {
		st, err := os.Stat(path + ".wal")
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	d.Insert(crashItems(r, 1, 9000)[0])
	extending := light
	extending.steps++
	for i, size := 0, walFile(); ; i++ {
		c := measure(func() { d.Delete(absent) })
		if walFile() == size {
			if c != light {
				t.Fatalf("light mutation %d after the Sync cost %+v, want %+v", i, c, light)
			}
			continue
		}
		if c != extending {
			t.Errorf("light mutation %d extended the log at a cost of %+v, want %+v", i, c, extending)
		}
		break
	}
	doSync()

	// Die with a logged tail that includes the absent delete's twin, and
	// find every acknowledged mutation — the no-op replayed as a no-op.
	d.Insert(crashItems(r, 1, 8003)[0])
	d.Delete(absent)
	d.Delete(items[2])
	want := dynDigest(t, d)
	fb.Abandon()
	re, err := OpenDynamic(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dynDigest(t, re); got != want {
		t.Errorf("recovered digest %08x, want %08x", got, want)
	}
	if ri := re.Recovery(); ri == nil || ri.ReappliedNotes != 3 {
		t.Errorf("Recovery() = %+v, want 3 re-applied notes", ri)
	}
}

// dynCrashedWithTail builds an index whose log ends in enough logged
// mutations that re-applying them crosses a carry and leaves a tombstone,
// then kills it.
func dynCrashedWithTail(t *testing.T, path string, opts *Options) (want uint32) {
	t.Helper()
	d, err := CreateDynamic(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(23))
	items := crashItems(r, 2*d.Base(), 0)
	for _, it := range items {
		d.Insert(it)
	}
	room := d.BufferCap() - d.BufferLen() // the insert that uses it up carries
	tail := crashItems(r, room+3, 3000)
	for _, it := range tail[:room] {
		d.Insert(it)
	}
	for _, it := range tail[room:] {
		d.Insert(it)
	}
	d.Delete(items[3]) // sits in a level
	d.Delete(tail[room])
	want = dynDigest(t, d)
	dynCrashBackend(t, d).Abandon()
	return want
}

// TestDynamicRecoveryCrashEveryStep kills recovery itself: OpenDynamic on
// an index that died with logged mutations re-applies them in one commit
// (carries included) and checkpoints. A crash at any persistence step of
// that — the level build's page writes, the commit's records, the
// checkpoint — must leave a log the next open recovers from, to the digest
// of the last acknowledged mutation.
func TestDynamicRecoveryCrashEveryStep(t *testing.T) {
	// The tail is logged with no carry in flight; the case keeps the name
	// it had beside the retired background carry.
	t.Run("inline", func(t *testing.T) {
		dir := t.TempDir()
		opts := &Options{BlockSize: 512}
		seed := filepath.Join(dir, "seed.prd")
		want := dynCrashedWithTail(t, seed, opts)
		work := filepath.Join(dir, "work.prd")
		stride := int64(1)
		if testing.Short() {
			stride = 5
		}
		for k := int64(1); ; k += stride {
			if k > 400 {
				t.Fatalf("recovery still crashing after %d steps", k)
			}
			copyCrashFiles(t, seed, work)
			// The hook sees the backend before recovery's re-apply runs.
			var fb *storage.FileBackend
			armed := *opts
			armed.WrapBackend = func(b Backend) Backend {
				fb, _ = storage.AsFile(b)
				fb.SetCrashAfterSteps(fb.PersistSteps() + k)
				return b
			}
			var victim *Dynamic
			crashed := expectInjectedCrash(t, "recovery", func() (err error) {
				victim, err = OpenDynamic(work, &armed)
				return err
			})
			if !crashed {
				// The whole recovery fits in fewer than k steps.
				fb.SetCrashAfterSteps(0)
				if ri := victim.Recovery(); ri == nil || ri.ReappliedNotes == 0 {
					t.Fatalf("uninterrupted recovery reports %+v, want re-applied notes", ri)
				}
				if got := dynDigest(t, victim); got != want {
					t.Fatalf("uninterrupted recovery: digest %08x, want %08x", got, want)
				}
				if err := victim.Close(); err != nil {
					t.Fatal(err)
				}
				return
			}
			fb.Abandon()
			re, err := OpenDynamic(work, opts)
			if err != nil {
				t.Fatalf("recovery killed at step %d: reopen: %v", k, err)
			}
			if got := dynDigest(t, re); got != want {
				t.Fatalf("recovery killed at step %d: digest %08x, want %08x (recovery: %v)", k, got, want, re.Recovery())
			}
			if err := re.CheckPages(); err != nil {
				t.Fatalf("recovery killed at step %d: checksum scrub: %v", k, err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestDynamicNotesSurviveForeignHandles: the log of a crashed dynamic index
// is the only copy of its logged mutations. Handles that do not consume
// them — the raw page store opened and closed (or synced), the static
// tree's Open, which fails on the directory blob — must leave the file
// recoverable: OpenDynamic afterwards still finds every acknowledged
// mutation.
func TestDynamicNotesSurviveForeignHandles(t *testing.T) {
	dir := t.TempDir()
	opts := &Options{BlockSize: 512}
	path := filepath.Join(dir, "owned.prd")
	want := dynCrashedWithTail(t, path, opts)

	for _, withSync := range []bool{false, true} {
		fb, err := storage.OpenFile(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(fb.RecoveredNotes()) == 0 {
			t.Fatal("the crashed index's log holds no notes")
		}
		if withSync {
			if err := fb.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if tr, err := Open(path, opts); err == nil {
		tr.Close()
		t.Fatal("the static Open accepted a dynamic index")
	}

	re, err := OpenDynamic(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := dynDigest(t, re); got != want {
		t.Errorf("after foreign handles: digest %08x, want %08x (recovery: %v)", got, want, re.Recovery())
	}
	if ri := re.Recovery(); ri == nil || ri.ReappliedNotes == 0 {
		t.Errorf("Recovery() = %+v, want re-applied notes", ri)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	// Consumed and checkpointed: the next open is clean.
	re, err = OpenDynamic(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovery() != nil {
		t.Errorf("reopen after a clean close reports recovery: %v", re.Recovery())
	}
	if got := dynDigest(t, re); got != want {
		t.Errorf("clean reopen: digest %08x, want %08x", got, want)
	}
}
