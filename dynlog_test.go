package prtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prtree/internal/logmethod"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// Tests for the dynamic index's logged mutations: what a mutation costs
// between two saves of the state, that Close and Sync save atomically,
// that recovery's own re-apply can be killed at every step, and that a
// log holding notes survives handles that do not understand it.

// TestDynamicCloseSyncCrashEveryStep: Close and Sync rewrite the state
// pages, and used to do so outside any transaction — the committed chains'
// pages were freed, handed out again and overwritten in place before the
// checkpoint's header was durable, so a crash inside Close left a log that
// still pointed at the old chain heads and an index that did not open.
// Kill both at every persistence step; the reopen must succeed and hold
// exactly the last committed state. Here every record fits the header
// block, so the index has no state page;
// TestDynamicCloseSyncCrashEveryStepChained covers a chain of them.
func TestDynamicCloseSyncCrashEveryStep(t *testing.T) {
	killCloseAndSync(t, 1, func(d *Dynamic) Item {
		r := rand.New(rand.NewSource(31))
		items := crashItems(r, 5*d.Base()/2, 0)
		for _, it := range items {
			mustInsert(t, d, it)
		}
		// Two that already sit in levels: tombstones. The half-full buffer
		// and the tombstones fit the header block beside the directory.
		mustDelete(t, d, items[0])
		mustDelete(t, d, items[d.Base()+1])
		if n := statePages(d, 512); n != 0 {
			t.Fatalf("the seed's %d records need %d state pages, want none", stateRecords(d), n)
		}
		return crashItems(r, 1, 7000)[0]
	})
}

// TestDynamicCloseSyncCrashEveryStepChained is the same kill-at-every-step
// of Close and Sync over an index whose records overflow the header block
// into a chain of state pages, which both rewrite: a level, a buffer that
// the extra insert leaves one short of its carry and tombstones, two state
// pages past the blob.
func TestDynamicCloseSyncCrashEveryStepChained(t *testing.T) {
	killCloseAndSync(t, 1, func(d *Dynamic) Item {
		r := rand.New(rand.NewSource(37))
		items := crashItems(r, 4*d.Base()-2, 0)
		for _, it := range items {
			mustInsert(t, d, it)
		}
		for _, it := range items[:6] {
			mustDelete(t, d, it)
		}
		if n := statePages(d, 512); n != 2 {
			t.Fatalf("the seed's %d records need %d state pages, want 2", stateRecords(d), n)
		}
		return crashItems(r, 1, 7000)[0]
	})
}

// syncOrCloseRun is what an uninterrupted Sync or Close did to the file.
type syncOrCloseRun struct {
	steps, walRecords           int64
	pagesBefore                 int
	pagesAfter, pagesInUseAfter int
}

// killCloseAndSync creates a dynamic index at 512-byte blocks, runs history
// on it and kills the process: the log is the state. It then opens that
// index, commits history's extra item, and kills Close, then Sync, before
// every stride-th of their persistence steps. Every reopen must find the
// last committed state and a clean scrub. It returns what the
// uninterrupted run of each did.
func killCloseAndSync(t *testing.T, stride int64, history func(d *Dynamic) (extra Item)) map[string]syncOrCloseRun {
	t.Helper()
	opts := &Options{BlockSize: 512}
	seed := filepath.Join(t.TempDir(), "seed.prd")
	d, err := CreateDynamic(seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	extra := history(d)
	d.fileBackend(t).Abandon()
	runs := make(map[string]syncOrCloseRun)
	for _, op := range []string{"Close", "Sync"} {
		work := filepath.Join(filepath.Dir(seed), op+".prd")
		var victim *Dynamic
		var want uint32
		var run syncOrCloseRun
		crashSweep[*Dynamic]{
			name: op, seed: seed, work: work, stride: stride, steps: 2000,
			kill: func(arm func(*storage.FileBackend)) (err error) {
				if victim, err = OpenDynamic(work, opts); err != nil {
					return err
				}
				mustInsert(t, victim, extra) // one more committed mutation: the state to find
				want = indexDigest(t, victim)
				fb := victim.fileBackend(t)
				run = syncOrCloseRun{steps: -fb.PersistSteps(), walRecords: -fb.WALStats().Records}
				run.pagesBefore, _ = victim.PageCounts()
				arm(fb)
				if op == "Sync" {
					return victim.Sync()
				}
				return victim.Close()
			},
			survived: func(fb *storage.FileBackend) {
				run.steps += fb.PersistSteps()
				run.walRecords += fb.WALStats().Records
				if err := victim.Close(); err != nil {
					t.Fatal(err)
				}
			},
			reopen: func() (*Dynamic, error) { return OpenDynamic(work, opts) },
			check: func(what string, crashed bool, re *Dynamic) {
				if got := indexDigest(t, re); got != want {
					t.Fatalf("%s: reopened to digest %08x, last committed state is %08x (recovery: %v)",
						what, got, want, re.Recovery())
				}
				if !crashed {
					run.pagesAfter, run.pagesInUseAfter = re.PageCounts()
					runs[op] = run
				}
			},
		}.run(t)
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
		mustInsert(t, d, it) // two doublings; ends right after the second carry: the buffer is empty
	}
	room := d.BufferCap()
	if d.BufferLen() != 0 || room != len(items) {
		t.Fatalf("buffer holds %d items of %d, want the state right after a carry: none of %d", d.BufferLen(), room, len(items))
	}
	fb := d.fileBackend(t)
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
		if c := measure(func() { mustInsert(t, d, it) }); c != light {
			t.Fatalf("insert %d of %d between carries cost %+v, want %+v", i, room-1, c, light)
		}
		switch i {
		case 2: // an item in a level: a tombstone
			if c := measure(func() { mustDelete(t, d, items[1]) }); c != light {
				t.Fatalf("tombstoning delete cost %+v, want %+v", c, light)
			}
		case 3: // an item in the buffer: removed physically
			if c := measure(func() { mustDelete(t, d, more[0]) }); c != light {
				t.Fatalf("buffer delete cost %+v, want %+v", c, light)
			}
		case 4: // nothing to delete: logged all the same
			var ok bool
			if c := measure(func() { ok = mustDelete(t, d, absent) }); c != light || ok {
				t.Fatalf("delete of an absent item = %v, cost %+v; want false, %+v", ok, c, light)
			}
		case 5: // a revive: the tombstone goes
			if c := measure(func() { mustInsert(t, d, items[1]) }); c != light {
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
	if c := measure(func() { mustInsert(t, d, last[0]) }); c != light {
		t.Fatalf("last insert before the carry cost %+v, want %+v", c, light)
	}
	if c := measure(func() { mustInsert(t, d, last[1]) }); c.writes == 0 || c.walRecords < 3 || c.fileSyncs != 1 || d.BufferLen() != 0 {
		t.Errorf("carrying insert cost %+v and left %d items in the buffer; want page writes, a STATE, an empty buffer", c, d.BufferLen())
	}
	mustInsert(t, d, last[2])

	// Sync right after a committed mutation, over a file whose carries left
	// the level in its tail and holes below: the save transaction — the
	// state pages its records need beyond the header block, none for the
	// one buffered item (the revive emptied the tombstone set), and with
	// no page written its commit fsyncs the log alone — then one more
	// STATE-bearing commit for the level pages copied into the holes, no
	// more of them than the checkpoint then truncates away, and the
	// checkpoint.
	doSync := func() {
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// The save commit fsyncs the page file only if it wrote a state page.
	spill := int64(statePages(d, opts.BlockSize))
	before, _ := d.PageCounts()
	moving := measure(doSync)
	total, inUse := d.PageCounts()
	if copies := moving.writes - spill; copies < 1 || copies > int64(before-total) || total != inUse ||
		moving.walRecords != 6 || moving.logSyncs != 3 || moving.fileSyncs != 2+min(spill, 1) {
		t.Errorf("Sync over a file of %d pages cost %+v and left %d pages, %d in use; want %d state pages, copies no more than the pages returned, two NOTE+STATE+COMMIT, every page in use",
			before, moving, total, inUse, spill)
	}
	// And over a file with nothing above the pages in use, what it always
	// cost: the save transaction, then the checkpoint (header, freelist
	// trailer, fsync, log truncate).
	mustInsert(t, d, last[3])
	spill = int64(statePages(d, opts.BlockSize))
	if sync := measure(doSync); sync.writes != spill || sync.walRecords != 3 || sync.logSyncs != 2 || sync.fileSyncs != 1+min(spill, 1) {
		t.Errorf("Sync cost %+v, want %d state pages, NOTE+STATE+COMMIT, and the checkpoint's fsyncs", sync, spill)
	}
	// With no mutation since, the chain on disk is the state's: the save
	// names it again and writes no page.
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
	mustInsert(t, d, crashItems(r, 1, 9000)[0])
	extending := light
	extending.steps++
	for i, size := 0, walFile(); ; i++ {
		c := measure(func() { mustDelete(t, d, absent) })
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
	mustInsert(t, d, crashItems(r, 1, 8003)[0])
	mustDelete(t, d, absent)
	mustDelete(t, d, items[2])
	want := indexDigest(t, d)
	fb.Abandon()
	re, err := OpenDynamic(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := indexDigest(t, re); got != want {
		t.Errorf("recovered digest %08x, want %08x", got, want)
	}
	if ri := re.Recovery(); ri == nil || ri.ReappliedNotes != 3 {
		t.Errorf("Recovery() = %+v, want 3 re-applied notes", ri)
	}
}

// inlineCapacity returns how many state records a save of d's state puts
// in the header block at blockSize: the metadata blob's room after the
// directory — a fixed 40 bytes, a byte per level slot and a tree record per
// occupied one.
func inlineCapacity(d *Dynamic, blockSize int) int {
	room := storage.MetaCapacity(blockSize) - 40
	for _, n := range d.LevelSizes() {
		room--
		if n > 0 {
			room -= rtree.MetaSize
		}
	}
	return room / storage.ItemSize
}

// stateRecords returns how many records a save of d's state writes: the
// buffer's items and the tombstones.
func stateRecords(d *Dynamic) int {
	stored := d.BufferLen()
	for _, n := range d.LevelSizes() {
		stored += n
	}
	return d.BufferLen() + stored - d.Len()
}

// statePages returns how many state pages a save of d's state writes at
// blockSize: the records past the header block's, packed behind each
// page's 6-byte header.
func statePages(d *Dynamic, blockSize int) int {
	over := max(stateRecords(d)-inlineCapacity(d, blockSize), 0)
	perPage := (blockSize - 6) / storage.ItemSize
	return (over + perPage - 1) / perPage
}

// TestDynamicStatePagesOverflow: a save puts as many records as the header
// block holds into the metadata blob and the rest, overflow of them, into
// exactly ⌈overflow ÷ records per page⌉ state pages — the only pages a Sync
// writes when the levels are already in place — and the file then uses
// the levels' pages and those. It reopens to the same index.
func TestDynamicStatePagesOverflow(t *testing.T) {
	opts := &Options{BlockSize: 512}
	perPage := (opts.BlockSize - 6) / storage.ItemSize
	for _, overflow := range []int{0, 1, perPage, perPage + 1, 2*perPage + 3} {
		path := filepath.Join(t.TempDir(), "overflow.prd")
		d, err := CreateDynamic(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(41))
		items := crashItems(r, 2*d.Base(), 0)
		for _, it := range items {
			mustInsert(t, d, it) // ends right after a carry: the buffer is empty
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		levelPages, inUse := d.PageCounts() // a compact file of the levels alone
		if stateRecords(d) != 0 || inUse != levelPages {
			t.Fatalf("after the carry: %d state records, %d of %d pages in use", stateRecords(d), inUse, levelPages)
		}
		// Buffer items short of the next carry, then tombstones, up to the
		// header's capacity plus overflow.
		want := inlineCapacity(d, opts.BlockSize) + overflow
		extra, dead := crashItems(r, d.BufferCap(), 5000), 0
		for stateRecords(d) < want {
			if n := d.BufferLen(); n < d.BufferCap()-1 {
				mustInsert(t, d, extra[n])
			} else {
				mustDelete(t, d, items[dead])
				dead++
			}
		}
		if sizes := d.LevelSizes(); sizes[len(sizes)-1] != len(items) {
			t.Fatalf("levels %v after the mutations, want the carry's level alone", sizes)
		}
		pages := (overflow + perPage - 1) / perPage
		w0 := d.IOStats().Writes
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		total, inUse := d.PageCounts()
		if writes := int(d.IOStats().Writes - w0); writes != pages || inUse != levelPages+pages || total != inUse {
			t.Errorf("%d records, %d past the header: Sync wrote %d pages and left %d of %d in use; want %d state pages beside %d level pages",
				stateRecords(d), overflow, writes, inUse, total, pages, levelPages)
		}
		wantDigest := indexDigest(t, d)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDynamic(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := indexDigest(t, re); got != wantDigest || stateRecords(re) != want {
			t.Errorf("overflow %d reopened to digest %08x with %d records, want %08x with %d", overflow, got, stateRecords(re), wantDigest, want)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// closedDynamicBlob makes a closed index at path — a level, tombstones
// and a buffer whose records overflow the header block into a state page —
// and patches the directory blob in its header block with patch.
func closedDynamicBlob(t *testing.T, path string, opts *Options, patch func(blob []byte)) {
	t.Helper()
	d, err := CreateDynamic(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	items := crashItems(rand.New(rand.NewSource(43)), 2*d.Base()+3*d.Base()/2, 0)
	for _, it := range items {
		mustInsert(t, d, it)
	}
	mustDelete(t, d, items[0])
	mustDelete(t, d, items[1])
	if statePages(d, opts.BlockSize) == 0 {
		t.Fatal("the fixture's records fit the header block")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(file[:opts.BlockSize], []byte("PRDYNA02"))
	if at < 0 {
		t.Fatal("no directory blob in the header block")
	}
	patch(file[at:opts.BlockSize])
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenDynamicHostileCounts: the header block's directory blob has no
// checksum. One that declares 0x7FFFFFF0 buffer records and as many
// tombstones must fail OpenDynamic with an error: the buffer used to be
// allocated by its declared count before a record was read, and the
// process died out of memory.
func TestOpenDynamicHostileCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.prd")
	opts := &Options{BlockSize: 512}
	closedDynamicBlob(t, path, opts, func(blob []byte) {
		// The magic, three words (base, live, stored), then the counts.
		binary.LittleEndian.PutUint32(blob[20:], 0x7FFFFFF0)
		binary.LittleEndian.PutUint32(blob[24:], 0x7FFFFFF0)
	})
	if d, err := OpenDynamic(path, opts); err == nil {
		d.Close()
		t.Fatal("OpenDynamic accepted a directory declaring 2^31 records")
	}
}

// TestOpenDynamicRetiredFormat: an index saved in the version 1 directory
// format, which kept its records in two chains of state pages, fails
// OpenDynamic with a bad-version error that says to rebuild it.
func TestOpenDynamicRetiredFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.prd")
	opts := &Options{BlockSize: 512}
	closedDynamicBlob(t, path, opts, func(blob []byte) { copy(blob, "PRDYNA01") })
	d, err := OpenDynamic(path, opts)
	if err == nil {
		d.Close()
		t.Fatal("OpenDynamic read a PRDYNA01 directory")
	}
	if !errors.Is(err, ErrBadVersion) || !errors.Is(err, logmethod.ErrRetiredFormat) || !strings.Contains(err.Error(), "rebuild the index") {
		t.Fatalf("OpenDynamic of a PRDYNA01 directory: %v, want a wrapped ErrRetiredFormat", err)
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
		mustInsert(t, d, it)
	}
	room := d.BufferCap() - d.BufferLen() // the insert that uses it up carries
	tail := crashItems(r, room+3, 3000)
	for _, it := range tail[:room] {
		mustInsert(t, d, it)
	}
	for _, it := range tail[room:] {
		mustInsert(t, d, it)
	}
	mustDelete(t, d, items[3]) // sits in a level
	mustDelete(t, d, tail[room])
	want = indexDigest(t, d)
	d.fileBackend(t).Abandon()
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
		seed, work := filepath.Join(dir, "seed.prd"), filepath.Join(dir, "work.prd")
		want := dynCrashedWithTail(t, seed, opts)
		stride := int64(1)
		if testing.Short() {
			stride = 5
		}
		var victim *Dynamic
		crashSweep[*Dynamic]{
			name: "recovery", seed: seed, work: work, stride: stride, steps: 400,
			kill: func(arm func(*storage.FileBackend)) (err error) {
				// The hook sees the backend before recovery's re-apply runs.
				armed := *opts
				armed.WrapBackend = func(b Backend) Backend {
					fb, _ := storage.AsFile(b)
					arm(fb)
					return b
				}
				victim, err = OpenDynamic(work, &armed)
				return err
			},
			survived: func(*storage.FileBackend) {
				// The whole recovery fits in fewer than k steps.
				if ri := victim.Recovery(); ri == nil || ri.ReappliedNotes == 0 {
					t.Fatalf("uninterrupted recovery reports %+v, want re-applied notes", ri)
				}
				if got := indexDigest(t, victim); got != want {
					t.Fatalf("uninterrupted recovery: digest %08x, want %08x", got, want)
				}
				if err := victim.Close(); err != nil {
					t.Fatal(err)
				}
			},
			reopen: func() (*Dynamic, error) { return OpenDynamic(work, opts) },
			check: func(what string, _ bool, re *Dynamic) {
				if got := indexDigest(t, re); got != want {
					t.Fatalf("%s: digest %08x, want %08x (recovery: %v)", what, got, want, re.Recovery())
				}
			},
		}.run(t)
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
	if got := indexDigest(t, re); got != want {
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
	if got := indexDigest(t, re); got != want {
		t.Errorf("clean reopen: digest %08x, want %08x", got, want)
	}
}
