package prtree

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"prtree/internal/storage"
)

// scratchEntries lists the directory entries that look like scratch files.
func scratchEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.Contains(e.Name(), ".scratch") {
			out = append(out, e.Name())
		}
	}
	return out
}

func scratchTestItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = Item{Rect: NewRect(x, y, x+rng.Float64()*0.01, y+rng.Float64()*0.01), ID: uint32(i)}
	}
	return items
}

// TestBulkLoadLeavesDenseIndexFile: whatever the loader, a file-backed
// Create + BulkLoad + Close leaves an index file that is its tree and
// nothing else — Nodes() page slots after the header, all in use,
// allocated from page 0 — and no scratch file beside it. The memory
// budget is far below the input so every loader really spills.
func TestBulkLoadLeavesDenseIndexFile(t *testing.T) {
	const blockSize = 512
	items := scratchTestItems(3000, 5)
	for _, l := range []Loader{Hilbert, Hilbert4D, STR, TGS, PR} {
		t.Run("raw/"+l.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "dense.pr")
			tr, err := Create(path, &Options{BlockSize: blockSize, MemoryItems: 200})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BulkLoad(l, items); err != nil {
				t.Fatal(err)
			}
			if got := tr.scratch.PagesInUse(); got != 0 {
				t.Errorf("scratch store ends the load at %d pages in use", got)
			}
			if tr.scratch.Stats().Total() == 0 {
				t.Error("the load never touched its scratch store")
			}
			nodes := tr.Nodes()
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if ents := scratchEntries(t, dir); len(ents) != 0 {
				t.Errorf("scratch files left after Close: %v", ents)
			}

			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(blockSize) + int64(nodes)*int64(blockSize+8); st.Size() != want {
				t.Errorf("index file is %d bytes, want header + %d slots = %d", st.Size(), nodes, want)
			}
			fb, err := storage.OpenFile(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			if fb.NumPages() != nodes || fb.PagesInUse() != nodes {
				t.Errorf("%d pages allocated, %d in use, for a tree of %d", fb.NumPages(), fb.PagesInUse(), nodes)
			}
			fb.Abandon()

			re, err := Open(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Len() != len(items) || re.Nodes() != nodes {
				t.Errorf("reopened %d items in %d nodes, want %d in %d", re.Len(), re.Nodes(), len(items), nodes)
			}
			if err := re.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBulkLoadParallelismByteIdentical: an external PR load (input well
// above M, recursion leaves above the in-memory fork threshold) writes the
// same index file for the same block I/O at every Parallelism.
func TestBulkLoadParallelismByteIdentical(t *testing.T) {
	// Let Parallelism 8 mean eight workers on a smaller machine too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	items := scratchTestItems(40000, 11)
	var wantFile []byte
	var wantIO IOStats
	for _, p := range []int{1, 2, 8} {
		path := filepath.Join(t.TempDir(), "par.pr")
		tr, err := Create(path, &Options{MemoryItems: 12000, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(PR, items); err != nil {
			t.Fatal(err)
		}
		io := tr.IOStats()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if p == 1 {
			wantFile, wantIO = file, io
			continue
		}
		if io != wantIO {
			t.Errorf("Parallelism=%d: block I/O %v, serial load %v", p, io, wantIO)
		}
		if !bytes.Equal(file, wantFile) {
			t.Errorf("Parallelism=%d: index file differs from the serial load's", p)
		}
	}
}

// TestFailedLoadRemovesScratch: a load that dies — an injected backend
// fault mid-build, a kill at a persistence step, a commit that returns an
// error — removes its scratch file on the way out, before anyone closes
// the handle.
func TestFailedLoadRemovesScratch(t *testing.T) {
	items := scratchTestItems(2000, 6)
	opts := func(wrap func(Backend) Backend) *Options {
		return &Options{BlockSize: 512, MemoryItems: 200, WrapBackend: wrap}
	}
	load := func(t *testing.T, tr *Tree) (err error, panicked any) {
		t.Helper()
		defer func() { panicked = recover() }()
		return tr.BulkLoad(PR, items), nil
	}
	check := func(t *testing.T, dir string, tr *Tree) {
		t.Helper()
		if tr.scratch.Stats().Writes == 0 {
			t.Error("the load failed before it reached its scratch store; the test proves nothing")
		}
		if ents := scratchEntries(t, dir); len(ents) != 0 {
			t.Errorf("failed load left %v behind", ents)
		}
	}

	t.Run("faulty-crash", func(t *testing.T) {
		dir := t.TempDir()
		tr, err := Create(filepath.Join(dir, "f.pr"), opts(func(b Backend) Backend {
			// Ops 1-2 are Create's root write and sync; the fault fires a
			// few tree-page writes into the load.
			return NewFaultyBackend(b, FaultCrash, 12)
		}))
		if err != nil {
			t.Fatal(err)
		}
		_, p := load(t, tr)
		if perr, ok := p.(error); !ok || !errors.Is(perr, ErrInjectedFault) {
			t.Fatalf("load panicked with %v, want an injected fault", p)
		}
		check(t, dir, tr)
		crashBackend(t, tr).Abandon()
	})

	t.Run("crash-after-steps", func(t *testing.T) {
		dir := t.TempDir()
		tr, err := Create(filepath.Join(dir, "s.pr"), opts(nil))
		if err != nil {
			t.Fatal(err)
		}
		fb := crashBackend(t, tr)
		fb.SetCrashAfterSteps(fb.PersistSteps() + 10)
		_, p := load(t, tr)
		if perr, ok := p.(error); !ok || !errors.Is(perr, ErrInjectedFault) {
			t.Fatalf("load panicked with %v, want an injected fault", p)
		}
		check(t, dir, tr)
		fb.Abandon()
	})

	t.Run("commit-error", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "e.pr")
		var faulty *storage.Faulty
		tr, err := Create(path, opts(func(b Backend) Backend {
			faulty = storage.NewFaulty(b, storage.FaultError, 0)
			return faulty
		}))
		if err != nil {
			t.Fatal(err)
		}
		// Dry run on a sibling file to learn how many counted operations a
		// load spends, then fail the last one: the commit.
		var dryFaulty *storage.Faulty
		dry, err := Create(filepath.Join(dir, "dry.pr"), opts(func(b Backend) Backend {
			dryFaulty = storage.NewFaulty(b, storage.FaultNone, 0)
			return dryFaulty
		}))
		if err != nil {
			t.Fatal(err)
		}
		before := dryFaulty.Ops()
		if err := dry.BulkLoad(PR, items); err != nil {
			t.Fatal(err)
		}
		spent := dryFaulty.Ops() - before
		if err := dry.Close(); err != nil {
			t.Fatal(err)
		}
		faulty.Arm(spent)
		err, p := load(t, tr)
		if p != nil || !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("load = %v (panic %v), want the commit's injected error", err, p)
		}
		check(t, dir, tr)
		crashBackend(t, tr).Abandon()
		// The failed commit rolled back: the file still opens to the empty
		// tree Create committed.
		re, err := Open(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if re.Len() != 0 {
			t.Errorf("recovered %d items from a load whose commit failed", re.Len())
		}
	})
}

// TestStaleScratchRemovedOnOpen: every file-backed constructor deletes the
// scratch file a killed process left behind before it does anything else.
func TestStaleScratchRemovedOnOpen(t *testing.T) {
	dir := t.TempDir()
	plant := func(path string) {
		t.Helper()
		if err := os.WriteFile(storage.ScratchPath(path), []byte("left by a killed process"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gone := func(what string) {
		t.Helper()
		if ents := scratchEntries(t, dir); len(ents) != 0 {
			t.Errorf("%s left stale %v in place", what, ents)
		}
	}

	static := filepath.Join(dir, "static.pr")
	plant(static)
	tr, err := Create(static, nil)
	if err != nil {
		t.Fatal(err)
	}
	gone("Create")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	plant(static)
	if tr, err = Open(static, nil); err != nil {
		t.Fatal(err)
	}
	gone("Open")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	dyn := filepath.Join(dir, "dyn.prd")
	plant(dyn)
	d, err := CreateDynamic(dyn, nil)
	if err != nil {
		t.Fatal(err)
	}
	gone("CreateDynamic")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	plant(dyn)
	if d, err = OpenDynamic(dyn, nil); err != nil {
		t.Fatal(err)
	}
	gone("OpenDynamic")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A failed open of something that is no index must still have cleaned up.
	junk := filepath.Join(dir, "junk.pr")
	if err := os.WriteFile(junk, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	plant(junk)
	if _, err := Open(junk, nil); err == nil {
		t.Fatal("Open accepted a junk file")
	}
	gone("a failed Open")
}

// TestDynamicCarriesUseScratch: under an explicit memory budget below the
// levels it builds, inserts that cross many carries build every level past
// the budget through the handle's one scratch file — kept between carries,
// counted in IOStats, empty whenever no build runs — and Close removes it.
// The index reopens to the same answers.
func TestDynamicCarriesUseScratch(t *testing.T) {
	items := scratchTestItems(1200, 7)
	// Carries run inline only; the case keeps the name it had beside the
	// retired background mode.
	t.Run("background=false", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "carry.prd")
		// 512-byte blocks: a buffer of 14 items, so 1200 inserts carry some 85
		// times and reach level 6; every level above 200 items is an external
		// load.
		opts := &Options{BlockSize: 512, MemoryItems: 200}
		d, err := CreateDynamic(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			if err := d.InsertE(it); err != nil {
				t.Fatal(err)
			}
			if i == len(items)/2 {
				if ents := scratchEntries(t, dir); len(ents) != 1 {
					t.Errorf("between carries the directory holds scratch files %v, want the handle's one", ents)
				}
			}
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := d.scratch.PagesInUse(); got != 0 {
			t.Errorf("scratch store holds %d pages with no build running", got)
		}
		sio := d.scratch.Stats()
		if sio.Total() == 0 {
			t.Error("no carry touched the scratch store")
		}
		if total := d.IOStats(); total.Writes < sio.Writes || total.Reads < sio.Reads {
			t.Errorf("IOStats %v omits the scratch store's %v", total, sio)
		}
		want := d.Search(NewRect(0.2, 0.2, 0.6, 0.6))
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if ents := scratchEntries(t, dir); len(ents) != 0 {
			t.Errorf("scratch files left after Close: %v", ents)
		}
		re, err := OpenDynamic(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got := re.Search(NewRect(0.2, 0.2, 0.6, 0.6)); len(got) != len(want) || re.Len() != len(items) {
			t.Errorf("reopened index answers %d of %d items, want %d of %d", len(got), re.Len(), len(want), len(items))
		}
	})
}

// TestDefaultLoadsUseNoScratch: under the default memory budget a PR load
// of a slice builds in memory. Create + BulkLoad(PR) and a Dynamic's
// carries create no scratch file and do no scratch I/O, and the load
// allocates at most eight bytes a record beyond the pages it writes.
func TestDefaultLoadsUseNoScratch(t *testing.T) {
	noScratch := func(t *testing.T, dir string, sio IOStats) {
		t.Helper()
		if ents := scratchEntries(t, dir); len(ents) != 0 {
			t.Errorf("scratch files %v beside a default-budget index", ents)
		}
		if sio.Total() != 0 {
			t.Errorf("scratch store did %v of I/O", sio)
		}
	}

	t.Run("BulkLoad", func(t *testing.T) {
		// Above the old default budget of 2^16, so the parent's load was
		// external.
		items := scratchTestItems(80000, 8)
		dir := t.TempDir()
		tr, err := Create(filepath.Join(dir, "static.pr"), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := tr.BulkLoad(PR, items); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		noScratch(t, dir, tr.scratch.Stats())
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != len(items) {
			t.Fatalf("loaded %d of %d items", tr.Len(), len(items))
		}
		if total, inUse := tr.PageCounts(); total != tr.Nodes() || inUse != tr.Nodes() {
			t.Errorf("%d pages allocated, %d in use, for a tree of %d", total, inUse, tr.Nodes())
		}
		if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(8*len(items)); got > limit {
			t.Errorf("the load allocated %d bytes for %d records, want at most %d", got, len(items), limit)
		}
	})

	t.Run("Dynamic", func(t *testing.T) {
		items := scratchTestItems(1200, 7)
		dir := t.TempDir()
		d, err := CreateDynamic(filepath.Join(dir, "carry.prd"), &Options{BlockSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for i, it := range items {
			if err := d.InsertE(it); err != nil {
				t.Fatal(err)
			}
			if i == len(items)/2 {
				noScratch(t, dir, d.scratch.Stats())
			}
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		if len(d.LevelSizes()) < 5 {
			t.Fatalf("levels %v: too few carries to prove anything", d.LevelSizes())
		}
		noScratch(t, dir, d.scratch.Stats())
		if d.Len() != len(items) {
			t.Errorf("index holds %d of %d items", d.Len(), len(items))
		}
	})
}
