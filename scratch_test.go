package prtree

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// indexFiles fails the test unless dir holds exactly the index files at
// the given names and their write-ahead logs: a load makes no other file.
func indexFiles(t *testing.T, dir string, names ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	for _, n := range names {
		want = append(want, n, n+".wal")
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("the directory holds %v, want %v", got, want)
	}
}

// TestBulkLoadLeavesDenseIndexFile: whatever the loader, a file-backed
// Create + BulkLoad + Close leaves an index file that is its tree and
// nothing else — Nodes() page slots after the header, all in use,
// allocated from page 0 — and no file but the index and its log. Every
// loader builds in memory, so the load's block I/O is the tree's page
// writes and nothing else.
func TestBulkLoadLeavesDenseIndexFile(t *testing.T) {
	const blockSize = 512
	items := zoo.Uniform(3000, 0.01, 5)
	for _, l := range []Loader{Hilbert, Hilbert4D, TGS, PR} {
		t.Run(l.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "dense.pr")
			tr, err := Create(path, &Options{BlockSize: blockSize})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BulkLoad(l, items); err != nil {
				t.Fatal(err)
			}
			indexFiles(t, dir, "dense.pr")
			nodes := tr.Nodes()
			if io := tr.IOStats(); io != (IOStats{Writes: uint64(nodes)}) {
				t.Errorf("%v load did %v of block I/O for a tree of %d pages", l, io, nodes)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			indexFiles(t, dir, "dense.pr")

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

// TestBulkLoadParallelismByteIdentical: a PR load large enough that its kd
// recursion forks writes the same index file for the same block I/O at
// every Parallelism.
func TestBulkLoadParallelismByteIdentical(t *testing.T) {
	// Let Parallelism 8 mean eight workers on a smaller machine too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	items := zoo.Uniform(40000, 0.01, 11)
	var wantFile []byte
	var wantIO IOStats
	for _, p := range []int{1, 2, 8} {
		path := filepath.Join(t.TempDir(), "par.pr")
		tr, err := Create(path, &Options{Parallelism: p})
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
// error — leaves no file behind but the index and its log, whatever the
// loader: there is no temporary file to remove.
func TestFailedLoadRemovesScratch(t *testing.T) {
	items := zoo.Uniform(2000, 0.01, 6)
	opts := func(wrap func(Backend) Backend) *Options {
		return &Options{BlockSize: 512, WrapBackend: wrap}
	}
	load := func(t *testing.T, tr *Tree, l Loader) (err error, panicked any) {
		t.Helper()
		defer func() { panicked = recover() }()
		return tr.BulkLoad(l, items), nil
	}

	// eachLoader runs fn as a subtest for every loader.
	eachLoader := func(t *testing.T, fn func(t *testing.T, l Loader)) {
		for _, l := range []Loader{Hilbert, Hilbert4D, TGS, PR} {
			t.Run(l.String(), func(t *testing.T) { fn(t, l) })
		}
	}

	// A write fault on a live disk fails the load with its error: the
	// load does not commit, so the tree is closed, and its Close leaves the
	// file to reopen to the empty tree Create committed.
	t.Run("faulty-crash", func(t *testing.T) {
		eachLoader(t, func(t *testing.T, l Loader) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f.pr")
			tr, err := Create(path, opts(func(b Backend) Backend {
				// Op 1 is Create's sync; the fault fires at the load's
				// eleventh tree-page write.
				return storage.NewFaulty(b, storage.FaultError, 12)
			}))
			if err != nil {
				t.Fatal(err)
			}
			if err, p := load(t, tr, l); p != nil || !errors.Is(err, storage.ErrInjectedFault) {
				t.Fatalf("load = %v (panic %v), want the failed write's injected error", err, p)
			}
			indexFiles(t, dir, "f.pr")
			if err := tr.BulkLoad(l, items); err == nil {
				t.Error("a load after the failed one succeeded")
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Len() != 0 {
				t.Errorf("recovered %d items from a load that panicked", re.Len())
			}
		})
	})

	// A kill at a persistence step panics out of the load, which the
	// rollback ends: the tree is closed, and the file reopens to the empty
	// tree Create committed.
	t.Run("crash-after-steps", func(t *testing.T) {
		eachLoader(t, func(t *testing.T, l Loader) {
			dir := t.TempDir()
			path := filepath.Join(dir, "s.pr")
			tr, err := Create(path, opts(nil))
			if err != nil {
				t.Fatal(err)
			}
			fb := tr.fileBackend(t)
			fb.SetCrashAfterSteps(fb.PersistSteps() + 10)
			_, p := load(t, tr, l)
			if perr, ok := p.(error); !ok || !errors.Is(perr, storage.ErrInjectedFault) {
				t.Fatalf("load panicked with %v, want an injected fault", p)
			}
			indexFiles(t, dir, "s.pr")
			if err := tr.BulkLoad(l, items); err == nil {
				t.Error("a load after the killed one succeeded")
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Len() != 0 {
				t.Errorf("recovered %d items from a load that was killed", re.Len())
			}
		})
	})

	t.Run("commit-error", func(t *testing.T) {
		eachLoader(t, func(t *testing.T, l Loader) {
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
			// Dry run on a sibling file to learn how many counted operations
			// a load spends, then fail the last one: the commit.
			var dryFaulty *storage.Faulty
			dry, err := Create(filepath.Join(dir, "dry.pr"), opts(func(b Backend) Backend {
				dryFaulty = storage.NewFaulty(b, storage.FaultNone, 0)
				return dryFaulty
			}))
			if err != nil {
				t.Fatal(err)
			}
			before := dryFaulty.Ops()
			if err := dry.BulkLoad(l, items); err != nil {
				t.Fatal(err)
			}
			spent := dryFaulty.Ops() - before
			if err := dry.Close(); err != nil {
				t.Fatal(err)
			}
			faulty.Arm(spent)
			err, p := load(t, tr, l)
			if p != nil || !errors.Is(err, storage.ErrInjectedFault) {
				t.Fatalf("load = %v (panic %v), want the commit's injected error", err, p)
			}
			indexFiles(t, dir, "dry.pr", "e.pr")
			tr.fileBackend(t).Abandon()
			// The failed commit rolled back: the file still opens to the
			// empty tree Create committed.
			re, err := Open(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Len() != 0 {
				t.Errorf("recovered %d items from a load whose commit failed", re.Len())
			}
		})
	})
}

// TestDynamicCarriesUseScratch: a file-backed Dynamic builds every level
// in memory, so its carries use no scratch file at all. Inserts that
// cross many carries, a flush, a Sync, a Close and a reopen that carries
// again leave no file but the index and its log at any point.
func TestDynamicCarriesUseScratch(t *testing.T) {
	items := zoo.Uniform(1200, 0.01, 7)
	// Carries run inline only; the case keeps the name it had beside the
	// retired background mode.
	t.Run("background=false", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "carry.prd")
		// 512-byte blocks: a buffer of 14 items, so 1200 inserts carry some 85
		// times and reach level 6.
		opts := &Options{BlockSize: 512}
		d, err := CreateDynamic(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range items[:1000] {
			if err := d.InsertE(it); err != nil {
				t.Fatal(err)
			}
			if i == 500 {
				indexFiles(t, dir, "carry.prd")
			}
		}
		if len(d.LevelSizes()) < 5 {
			t.Fatalf("levels %v: too few carries to prove anything", d.LevelSizes())
		}
		if err := d.FlushE(); err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		indexFiles(t, dir, "carry.prd")
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDynamic(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items[1000:] {
			if err := re.InsertE(it); err != nil {
				t.Fatal(err)
			}
		}
		indexFiles(t, dir, "carry.prd")
		if re.Len() != len(items) {
			t.Errorf("index holds %d of %d items", re.Len(), len(items))
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		indexFiles(t, dir, "carry.prd")
	})
}

// TestDefaultLoadsUseNoScratch: a PR load of a slice builds in memory.
// Create + BulkLoad(PR) and a Dynamic's carries create no file but the
// index and its log, the load's block I/O is its tree's page writes, and
// the load allocates at most eight bytes a record beyond the pages it
// writes.
func TestDefaultLoadsUseNoScratch(t *testing.T) {
	t.Run("BulkLoad", func(t *testing.T) {
		// Above extmem.DefaultMemoryItems, the budget the external loaders
		// run at.
		items := zoo.Uniform(80000, 0.01, 8)
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
		indexFiles(t, dir, "static.pr")
		if io := tr.IOStats(); io != (IOStats{Writes: uint64(tr.Nodes())}) {
			t.Errorf("the load did %v of block I/O for a tree of %d pages", io, tr.Nodes())
		}
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
		items := zoo.Uniform(1200, 0.01, 7)
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
				indexFiles(t, dir, "carry.prd")
			}
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		if len(d.LevelSizes()) < 5 {
			t.Fatalf("levels %v: too few carries to prove anything", d.LevelSizes())
		}
		indexFiles(t, dir, "carry.prd")
		if d.Len() != len(items) {
			t.Errorf("index holds %d of %d items", d.Len(), len(items))
		}
	})
}
