package prtree

import (
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"prtree/internal/parallel"
	"prtree/internal/zoo"
)

// goroutinesSettle fails the test unless the goroutine count is back at
// baseline within a second of a Close.
func goroutinesSettle(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			var dump strings.Builder
			pprof.Lookup("goroutine").WriteTo(&dump, 2)
			t.Fatalf("%d goroutines after Close, %d before Create:\n%s", runtime.NumGoroutine(), baseline, dump.String())
		}
	}
}

// queryAll runs a window over the whole index on four goroutines at once
// and fails unless each finds all n items.
func queryAll(t *testing.T, s querier, n int) {
	t.Helper()
	counts := make([]int, 4)
	parallel.Run(4, len(counts), func(i int) { counts[i], _ = s.Count(Window(NewRect(-1, -1, 2, 2))) })
	for _, c := range counts {
		if c != n {
			t.Fatalf("a window over the index found %d of %d items", c, n)
		}
	}
}

// TestTreeCloseLeavesNoGoroutine: a file-backed Tree that ran concurrent
// queries, a Sync and a reopen leaves no goroutine behind once Close
// returns.
func TestTreeCloseLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	baseline := runtime.NumGoroutine()
	path := filepath.Join(t.TempDir(), "leak.pr")
	items := zoo.Uniform(3000, 0.02, 1)
	tr, err := Create(path, &Options{CacheCapacity: 8, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(PR, items); err != nil {
		t.Fatal(err)
	}
	queryAll(t, tr, len(items))
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr, err = Open(path, &Options{CacheCapacity: 8}); err != nil {
		t.Fatal(err)
	}
	queryAll(t, tr, len(items))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	goroutinesSettle(t, baseline)
}

// TestDynamicCloseLeavesNoGoroutine: a file-backed Dynamic that ran
// concurrent queries, carries, a Sync and a reopen leaves no goroutine
// behind once Close returns.
func TestDynamicCloseLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	baseline := runtime.NumGoroutine()
	path := filepath.Join(t.TempDir(), "leak.pr")
	d, err := CreateDynamic(path, &Options{BlockSize: 1024, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	items := zoo.Uniform(3*d.BufferCap(), 0.02, 2)
	for _, it := range items {
		mustInsert(t, d, it)
	}
	if d.CompactionStats().MergesCompleted == 0 {
		t.Fatal("no carry ran")
	}
	queryAll(t, d, len(items))
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = OpenDynamic(path, nil); err != nil {
		t.Fatal(err)
	}
	queryAll(t, d, len(items))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	goroutinesSettle(t, baseline)
}
