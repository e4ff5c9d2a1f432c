package prtree

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"prtree/internal/storage"
)

// Tests for the online-compaction subsystem: the property test that
// background compaction is query-equivalent to the synchronous path, the
// -race stress of concurrent readers during merges, and the
// kill-at-every-step crash test for the dynamic index's persistence
// (carries, the background epoch-swap commit, flushes).

// dynDigest fingerprints a dynamic index's entire query surface. Window,
// point and containment results are canonicalized by item ID (sync and
// background runs may build different level shapes, so traversal order is
// not comparable — the result SET must be identical); kNN results keep
// their order, which is deterministic (distance then ID) regardless of
// shape.
func dynDigest(t *testing.T, d *Dynamic) uint32 {
	t.Helper()
	windows := []Rect{
		NewRect(0.1, 0.1, 0.4, 0.4),
		NewRect(0.5, 0.5, 0.9, 0.9),
		NewRect(0.25, 0.6, 0.35, 0.95),
		NewRect(0, 0, 1, 1),
		NewRect(0.42, 0.13, 0.58, 0.27),
	}
	var sb strings.Builder
	dump := func(kind string, items []Item) {
		sorted := append([]Item(nil), items...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j].ID < sorted[j-1].ID; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		fmt.Fprintf(&sb, "%s:%d;", kind, len(sorted))
		for _, it := range sorted {
			fmt.Fprintf(&sb, "%d,%v;", it.ID, it.Rect)
		}
	}
	fmt.Fprintf(&sb, "len:%d;", d.Len())
	for _, q := range windows {
		dump("w", d.Search(q))
		dump("c", d.SearchContained(q))
	}
	dump("p", d.SearchPoint(0.33, 0.44))
	dump("p", d.SearchPoint(0.71, 0.18))
	for _, nn := range [][]Neighbor{d.NearestNeighbors(0.2, 0.8, 10), d.NearestNeighbors(0.9, 0.1, 10)} {
		fmt.Fprintf(&sb, "n:%d;", len(nn))
		for _, n := range nn {
			fmt.Fprintf(&sb, "%d,%v,%g;", n.Item.ID, n.Item.Rect, n.Dist2)
		}
	}
	for _, res := range d.SearchBatch(windows, 3) {
		dump("b", res)
	}
	return crc32.ChecksumIEEE([]byte(sb.String()))
}

// waitForMerges polls until the background compactor has completed at
// least one merge (the supervisor runs on its own goroutine; a fast
// all-in-memory workload can finish before it is ever scheduled).
func waitForMerges(t *testing.T, d *Dynamic) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for d.CompactionStats().MergesCompleted == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no background merge completed: %+v", d.CompactionStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// dynEquivWorkload applies a deterministic insert/delete/revive sequence.
func dynEquivWorkload(d *Dynamic, seed int64) {
	r := rand.New(rand.NewSource(seed))
	items := crashItems(r, 400, 0)
	for i, it := range items {
		d.Insert(it)
		if i > 20 && i%7 == 3 {
			d.Delete(items[i-17]) // tombstone an item already in a component
		}
	}
	// Revive two tombstoned items (re-insert of a dead ID).
	d.Insert(items[7])
	d.Insert(items[14])
	d.Delete(items[21])
}

// TestDynamicBackgroundEquivalence: background compaction must yield
// bit-identical query results (window, point, containment, kNN, batch) to
// the synchronous path, across seeds and across the memory and file
// backends. BlockSize 512 keeps the component base small so the workload
// crosses many carries.
func TestDynamicBackgroundEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 9} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			digests := make(map[string]uint32)

			for _, cfg := range []struct {
				name       string
				file       bool
				background bool
			}{
				{"memory/sync", false, false},
				{"memory/background", false, true},
				{"file/sync", true, false},
				{"file/background", true, true},
			} {
				opts := &Options{BlockSize: 512, BackgroundCompaction: cfg.background}
				var d *Dynamic
				if cfg.file {
					var err error
					d, err = CreateDynamic(filepath.Join(dir, strings.ReplaceAll(cfg.name, "/", "_")+".pr"), opts)
					if err != nil {
						t.Fatal(err)
					}
				} else {
					d = NewDynamic(opts)
				}
				dynEquivWorkload(d, seed)
				if cfg.background {
					// Let a merge land so Install and epoch advancement are
					// exercised before we read.
					waitForMerges(t, d)
					release := d.comp.Drain()
					release()
					if st := d.CompactionStats(); st.MergesAborted != 0 {
						t.Errorf("%s: %d aborted merges in a fault-free run", cfg.name, st.MergesAborted)
					}
				}
				digests[cfg.name] = dynDigest(t, d)
				if err := d.Close(); err != nil {
					t.Fatalf("%s: close: %v", cfg.name, err)
				}
			}

			want := digests["memory/sync"]
			for name, got := range digests {
				if got != want {
					t.Errorf("%s digest %08x != memory/sync %08x", name, got, want)
				}
			}
		})
	}
}

// TestDynamicParallelismIdentical: a file-backed dynamic index hands
// Options.Parallelism to every level build — carries spill to the external
// pipeline here, M being a few blocks — and ends in the same state at any
// setting: level occupancy, page counts, block I/O and every answer.
func TestDynamicParallelismIdentical(t *testing.T) {
	// Let Parallelism 4 mean four workers on a smaller machine too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	type outcome struct {
		levels       string
		total, inUse int
		io           IOStats
		digest       uint32
	}
	items := scratchTestItems(700, 5)
	run := func(parallelism int) outcome {
		path := filepath.Join(t.TempDir(), "par.prd")
		d, err := CreateDynamic(path, &Options{BlockSize: 512, MemoryItems: 64, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for i, it := range items {
			if err := d.InsertE(it); err != nil {
				t.Fatal(err)
			}
			if i%9 == 4 {
				if _, err := d.DeleteE(items[i-3]); err != nil {
					t.Fatal(err)
				}
			}
		}
		out := outcome{levels: fmt.Sprint(d.LevelSizes()), io: d.IOStats(), digest: dynDigest(t, d)}
		out.total, out.inUse = d.PageCounts()
		return out
	}
	want := run(1)
	if got := run(4); got != want {
		t.Errorf("Parallelism 4 ends at %+v, Parallelism 1 at %+v", got, want)
	}
}

// TestDynamicFileBackgroundReopen: a background-compacted index closes and
// reopens to the same contents as its synchronous twin.
func TestDynamicFileBackgroundReopen(t *testing.T) {
	dir := t.TempDir()
	pathBG := filepath.Join(dir, "bg.pr")
	pathSync := filepath.Join(dir, "sync.pr")

	bg, err := CreateDynamic(pathBG, &Options{BlockSize: 512, BackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	dynEquivWorkload(bg, 5)
	if err := bg.Close(); err != nil {
		t.Fatal(err)
	}

	sy, err := CreateDynamic(pathSync, &Options{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	dynEquivWorkload(sy, 5)
	want := dynDigest(t, sy)
	if err := sy.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDynamic(pathBG, &Options{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if got := dynDigest(t, re); got != want {
		t.Errorf("reopened background index digest %08x, sync twin %08x", got, want)
	}
	if err := re.CheckPages(); err != nil {
		t.Errorf("checksum scrub after background run: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicConcurrentReadersDuringMerges is the -race stress: window,
// point, containment, kNN and batch readers run continuously while a
// writer drives inserts and deletes through many background merges.
// Readers check snapshot invariants (no duplicate IDs, every result
// intersects the query) — with the race detector on, this also proves the
// copy-on-write path is data-race-free.
func TestDynamicConcurrentReadersDuringMerges(t *testing.T) {
	for _, backend := range []string{"memory", "file"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			opts := &Options{BlockSize: 512, BackgroundCompaction: true}
			var d *Dynamic
			if backend == "file" {
				var err error
				d, err = CreateDynamic(filepath.Join(t.TempDir(), "stress.pr"), opts)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				d = NewDynamic(opts)
			}
			defer d.Close()

			const nItems = 1500
			done := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(100 + w)))
					for {
						select {
						case <-done:
							return
						default:
						}
						q := NewRect(r.Float64(), r.Float64(), r.Float64(), r.Float64())
						switch w % 4 {
						case 0:
							seen := make(map[uint32]bool)
							d.Query(q, func(it Item) bool {
								if seen[it.ID] {
									t.Errorf("duplicate ID %d in window result", it.ID)
								}
								seen[it.ID] = true
								if it.Rect.MinX > q.MaxX || it.Rect.MaxX < q.MinX ||
									it.Rect.MinY > q.MaxY || it.Rect.MaxY < q.MinY {
									t.Errorf("item %d outside window", it.ID)
								}
								return true
							})
						case 1:
							d.SearchContained(q)
							d.SearchPoint(r.Float64(), r.Float64())
						case 2:
							nn := d.NearestNeighbors(r.Float64(), r.Float64(), 8)
							for i := 1; i < len(nn); i++ {
								if nn[i].Dist2 < nn[i-1].Dist2 {
									t.Errorf("kNN results out of order")
								}
							}
						case 3:
							d.SearchBatch([]Rect{q, NewRect(0, 0, 0.5, 0.5)}, 2)
						}
					}
				}(w)
			}

			r := rand.New(rand.NewSource(42))
			items := crashItems(r, nItems, 0)
			for i, it := range items {
				d.Insert(it)
				if i > 50 && i%11 == 5 {
					d.Delete(items[i-37])
				}
			}
			close(done)
			wg.Wait()
			waitForMerges(t, d)

			// All readers drained: no epoch pins may survive.
			if st := d.CompactionStats(); st.SnapshotReaders != 0 {
				t.Errorf("%d snapshot readers leaked", st.SnapshotReaders)
			}
		})
	}
}

// dynCrashBackend digs the FileBackend out of a dynamic index.
func dynCrashBackend(t *testing.T, d *Dynamic) *storage.FileBackend {
	t.Helper()
	fb, ok := storage.AsFile(d.io)
	if !ok {
		t.Fatal("file-backed dynamic index has no FileBackend")
	}
	return fb
}

// dynCrashWorkload drives the dynamic index through every transaction
// shape the compaction subsystem commits: inline carries (sync inserts
// across a full buffer), deletes with tombstones, one manually-driven
// background carry (build off to the side, then the epoch-swap install
// commit — the exact transaction the compactor runs), a full flush, and a
// tail of logged mutations that Close finds in the buffer and the
// tombstone set.
func dynCrashWorkload(d *Dynamic, afterTx func()) {
	step := func() {
		if afterTx != nil {
			afterTx()
		}
	}
	r := rand.New(rand.NewSource(11))
	base := d.inner.Base()
	items := crashItems(r, 3*base+4, 0)
	for _, it := range items {
		d.Insert(it) // crosses >= 3 inline carries
		step()
	}
	for _, it := range []Item{items[1], items[base], items[2*base+1]} {
		d.Delete(it)
		step()
	}

	// One background-style carry, driven deterministically: fill the
	// buffer with inline carries off, build off to the side (page writes
	// outside any transaction — a crash here must recover the pre-merge
	// state), then commit the install exactly as internal/compact does.
	d.inner.SetBackground(true)
	extra := crashItems(r, base, 5000)
	for _, it := range extra {
		d.Insert(it)
		step()
	}
	job, ok := d.inner.BeginCarry()
	if !ok {
		panic("BeginCarry refused with a full buffer")
	}
	job.Build()
	if err := d.mutate(nil, func() { job.Install() }); err != nil {
		panic(err)
	}
	storage.EnsureSnapshotter(d.io).SnapshotAdvance()
	step()
	d.inner.SetBackground(false)

	d.Flush()
	step()

	// Leave the buffer and the tombstone set non-empty, so that Close (the
	// victim's next call) has state pages to write: its save must be as
	// atomic as any other transaction's.
	for _, it := range crashItems(r, 3, 9000) {
		d.Insert(it)
		step()
	}
	d.Delete(items[5]) // sits in the flushed level: a tombstone
	step()
}

// TestDynamicCrashRecoveryEveryBoundary kills the dynamic index at every
// persistence step of the workload above — including mid-background-build
// and inside the epoch-swap install commit — reopens, and requires the
// recovered index to match exactly one committed state.
func TestDynamicCrashRecoveryEveryBoundary(t *testing.T) {
	dir := t.TempDir()
	opts := &Options{BlockSize: 512}

	pristine := filepath.Join(dir, "pristine.prd")
	d, err := CreateDynamic(pristine, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference run: the digest of every committed state.
	refPath := filepath.Join(dir, "ref.prd")
	copyCrashFiles(t, pristine, refPath)
	ref, err := OpenDynamic(refPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	committed := make(map[uint32]int)
	committed[dynDigest(t, ref)] = 0
	txIndex := 0
	dynCrashWorkload(ref, func() {
		txIndex++
		dg := dynDigest(t, ref)
		if _, seen := committed[dg]; !seen {
			committed[dg] = txIndex
		}
	})
	finalDigest := dynDigest(t, ref)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// Dry run: count persistence steps.
	dryPath := filepath.Join(dir, "dry.prd")
	copyCrashFiles(t, pristine, dryPath)
	dry, err := OpenDynamic(dryPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	dfb := dynCrashBackend(t, dry)
	start := dfb.PersistSteps()
	dynCrashWorkload(dry, nil)
	if err := dry.Close(); err != nil {
		t.Fatal(err)
	}
	totalSteps := dfb.PersistSteps() - start
	if totalSteps < 20 {
		t.Fatalf("workload spent only %d persistence steps; instrumentation broken?", totalSteps)
	}
	t.Logf("workload: %d persistence steps, %d distinct committed states", totalSteps, len(committed))

	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	workPath := filepath.Join(dir, "crash.prd")
	for k := int64(1); k <= totalSteps; k += stride {
		copyCrashFiles(t, pristine, workPath)
		victim, err := OpenDynamic(workPath, opts)
		if err != nil {
			t.Fatalf("step %d: open: %v", k, err)
		}
		fb := dynCrashBackend(t, victim)
		fb.SetCrashAfterSteps(fb.PersistSteps() + k)

		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					err, ok := r.(error)
					if !ok || !errors.Is(err, storage.ErrInjectedFault) {
						t.Fatalf("step %d: panic %v, want ErrInjectedFault", k, r)
					}
					crashed = true
				}
			}()
			dynCrashWorkload(victim, nil)
			if err := victim.Close(); err != nil {
				if !errors.Is(err, storage.ErrInjectedFault) {
					t.Fatalf("step %d: close: %v", k, err)
				}
				return true
			}
			return false
		}()
		if crashed {
			fb.Abandon()
		}

		re, err := OpenDynamic(workPath, opts)
		if err != nil {
			t.Fatalf("step %d: reopen after crash: %v", k, err)
		}
		dg := dynDigest(t, re)
		if crashed {
			if _, ok := committed[dg]; !ok {
				t.Fatalf("step %d: recovered state matches no committed state (recovery: %v)",
					k, re.Recovery())
			}
		} else if dg != finalDigest {
			t.Fatalf("step %d: uncrashed run diverged from the reference", k)
		}
		if err := re.CheckPages(); err != nil {
			t.Fatalf("step %d: checksum scrub after recovery: %v", k, err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("step %d: close reopened: %v", k, err)
		}
	}
}

// TestDynamicInsertEDeleteE: the error-returning mutation surface works
// and the panic shims stay equivalent.
func TestDynamicInsertEDeleteE(t *testing.T) {
	d := NewDynamic(&Options{BlockSize: 512})
	defer d.Close()
	it := Item{Rect: NewRect(0.1, 0.1, 0.2, 0.2), ID: 1}
	if err := d.InsertE(it); err != nil {
		t.Fatal(err)
	}
	ok, err := d.DeleteE(it)
	if err != nil || !ok {
		t.Fatalf("DeleteE = %v, %v; want true, nil", ok, err)
	}
	ok, err = d.DeleteE(it)
	if err != nil || ok {
		t.Fatalf("repeated DeleteE = %v, %v; want false, nil", ok, err)
	}
	if err := d.FlushE(); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicCompactionStatsWriteAmp: counters accumulate and write
// amplification is items-merged over items-absorbed.
func TestDynamicCompactionStatsWriteAmp(t *testing.T) {
	d := NewDynamic(&Options{BlockSize: 512, BackgroundCompaction: true})
	defer d.Close()
	r := rand.New(rand.NewSource(13))
	for _, it := range crashItems(r, 600, 0) {
		d.Insert(it)
	}
	waitForMerges(t, d)
	release := d.comp.Drain()
	release()
	st := d.CompactionStats()
	if st.ItemsAbsorbed == 0 {
		t.Fatalf("no merge activity recorded: %+v", st)
	}
	if st.WriteAmplification < 1 {
		t.Errorf("write amplification %.2f < 1 (merged %d, absorbed %d)",
			st.WriteAmplification, st.ItemsMerged, st.ItemsAbsorbed)
	}
	if st.PinnedPages != 0 {
		t.Errorf("%d pages still pinned with no readers", st.PinnedPages)
	}
}
