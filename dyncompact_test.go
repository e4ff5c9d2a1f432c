package prtree

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"prtree/internal/rtree"
)

// Tests for the dynamic index's merges: the -race stress of concurrent
// readers beside carries, the kill-at-every-step crash test for the dynamic
// index's persistence (carries, deletes, a rebuild, Close), and the merge
// counters.

// TestDynamicParallelismIdentical: a file-backed dynamic index hands
// Options.Parallelism to every level build, each an in-memory PR build
// whose kd recursion forks on a large enough level, and ends in the same
// state at any setting: level occupancy, page counts, block I/O and every
// answer.
func TestDynamicParallelismIdentical(t *testing.T) {
	// Let Parallelism 4 mean four workers on a smaller machine too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	type outcome struct {
		levels       string
		total, inUse int
		io           IOStats
		digest       uint32
	}
	items := scratchTestItems(9000, 5)
	run := func(parallelism int) outcome {
		path := filepath.Join(t.TempDir(), "par.prd")
		d, err := CreateDynamic(path, &Options{BlockSize: 512, Parallelism: parallelism})
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
		// The largest carry must reach the kd recursion's fork, which needs
		// 4,096 items left beside the root's four priority leaves.
		if top := slices.Max(d.LevelSizes()); top < 4096+4*rtree.MaxFanout(512) {
			t.Fatalf("largest level holds %d items: no carry reached the parallel fork", top)
		}
		out := outcome{levels: fmt.Sprint(d.LevelSizes()), io: d.IOStats(), digest: indexDigest(t, d)}
		out.total, out.inUse = d.PageCounts()
		return out
	}
	want := run(1)
	if got := run(4); got != want {
		t.Errorf("Parallelism 4 ends at %+v, Parallelism 1 at %+v", got, want)
	}
}

// TestDynamicConcurrentReadersDuringMerges is the -race stress: window,
// point, containment and kNN readers run continuously, through the Query
// surface with a live context and a limit, while a writer drives inserts
// and deletes through many carries, each of which swaps the directory and
// frees the levels it replaced under the readers. Readers check snapshot
// invariants (no duplicate IDs, every result matches the query, a limit
// holds, kNN comes in order) — with the race detector on, this also proves
// the copy-on-write path is data-race-free.
func TestDynamicConcurrentReadersDuringMerges(t *testing.T) {
	for _, backend := range []string{"memory", "file"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			opts := &Options{BlockSize: 512}
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
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			var wg, started sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				started.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(100 + w)))
					answered := started.Done
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
							err := d.Run(Window(q).WithContext(ctx), func(it Item) bool {
								if seen[it.ID] {
									t.Errorf("duplicate ID %d in window result", it.ID)
								}
								seen[it.ID] = true
								if !q.Intersects(it.Rect) {
									t.Errorf("item %d outside window", it.ID)
								}
								return true
							})
							if err != nil {
								t.Errorf("window under a live context: %v", err)
							}
						case 1:
							n := 0
							err := d.Run(Contained(q).WithLimit(5).WithContext(ctx), func(it Item) bool {
								n++
								if !q.Contains(it.Rect) {
									t.Errorf("item %d not contained in window", it.ID)
								}
								return true
							})
							if err != nil || n > 5 {
								t.Errorf("contained, limit 5: %d results, err %v", n, err)
							}
							if _, err := d.Count(Point(r.Float64(), r.Float64()).WithContext(ctx)); err != nil {
								t.Errorf("point under a live context: %v", err)
							}
							d.CompactionStats() // counters the writer moves as it carries
						case 2:
							nn, err := d.CollectNearest(Nearest(r.Float64(), r.Float64(), 8).WithContext(ctx))
							if err != nil {
								t.Errorf("kNN under a live context: %v", err)
							}
							for i := 1; i < len(nn); i++ {
								if nn[i].Dist2 < nn[i-1].Dist2 {
									t.Errorf("kNN results out of order")
								}
							}
						case 3:
							d.Search(q)
							d.Search(NewRect(0, 0, 0.5, 0.5))
						}
						if answered != nil {
							answered()
							answered = nil
						}
					}
				}(w)
			}
			started.Wait() // every reader has answered once: the carries run beside them

			r := rand.New(rand.NewSource(42))
			items := crashItems(r, nItems, 0)
			for i, it := range items {
				mustInsert(t, d, it)
				if i > 50 && i%11 == 5 {
					mustDelete(t, d, items[i-37])
				}
			}
			close(done)
			wg.Wait()

			// All readers drained: no epoch pins may survive.
			st := d.CompactionStats()
			if st.MergesCompleted < 10 {
				t.Errorf("the writer carried %d times beside the readers, want many", st.MergesCompleted)
			}
			if st.SnapshotReaders != 0 || st.PinnedPages != 0 {
				t.Errorf("%d snapshot readers and %d pinned pages leaked", st.SnapshotReaders, st.PinnedPages)
			}
		})
	}
}

// dynCrashWorkload drives the dynamic index through every transaction
// shape it commits: logged inserts, carries (the inserts that fill the
// buffer), deletes with tombstones and from the buffer, a rebuild (a full
// flush), and a tail of logged mutations that Close finds in the buffer and
// the tombstone set. It stops at the first failed commit and returns its
// error.
func dynCrashWorkload(d *Dynamic, afterTx func()) error {
	step := func(err error) error {
		if err == nil && afterTx != nil {
			afterTx()
		}
		return err
	}
	del := func(it Item) error {
		_, err := d.DeleteE(it)
		return err
	}
	r := rand.New(rand.NewSource(11))
	base := d.inner.Base()
	items := crashItems(r, 3*base+4, 0)
	for _, it := range items {
		// Two carries: a level of base, then two merged into one.
		if err := step(d.InsertE(it)); err != nil {
			return err
		}
	}
	for _, it := range []Item{items[1], items[base], items[2*base+1]} {
		if err := step(del(it)); err != nil {
			return err
		}
	}

	// One more carry, over a buffer one delete shrank and a level holding
	// two tombstones: the merge purges them.
	for _, it := range crashItems(r, base, 5000) {
		if err := step(d.InsertE(it)); err != nil {
			return err
		}
	}

	if err := step(d.FlushE()); err != nil {
		return err
	}

	// Leave the buffer and the tombstone set non-empty, so that Close (the
	// victim's next call) has state pages to write: its save must be as
	// atomic as any other transaction's.
	for _, it := range crashItems(r, 3, 9000) {
		if err := step(d.InsertE(it)); err != nil {
			return err
		}
	}
	return step(del(items[5])) // sits in the flushed level: a tombstone
}

// TestDynamicCrashRecoveryEveryBoundary kills the dynamic index at every
// persistence step of the workload above — inside every carry's level
// build and its commit, and inside the flush's rebuild — reopens, and
// requires the recovered index to match exactly one committed state.
func TestDynamicCrashRecoveryEveryBoundary(t *testing.T) {
	opts := &Options{BlockSize: 512}
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	killWorkload(t, stride, func(path string) (*Dynamic, error) { return CreateDynamic(path, opts) },
		func(path string) (*Dynamic, error) { return OpenDynamic(path, opts) },
		func(d *Dynamic, afterTx func()) error {
			if err := dynCrashWorkload(d, afterTx); err != nil {
				return err
			}
			if st := d.CompactionStats(); st.MergesCompleted < 3 || st.ItemsMerged <= st.ItemsAbsorbed {
				t.Fatalf("the workload carried %d times (%+v); want the doubling and a merge of levels", st.MergesCompleted, st)
			}
			return nil
		})
}

// TestDynamicInsertEDeleteE: the error-returning mutation surface works.
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

// TestDynamicCompactionStatsWriteAmp: the counters follow the carries —
// one merge for every insert that empties the buffer, every item that left
// the buffer absorbed exactly once, one page written for every page a carry
// built, write amplification items merged over items absorbed — and a
// rebuild a delete triggers counts apart, a flush not at all.
func TestDynamicCompactionStatsWriteAmp(t *testing.T) {
	d := NewDynamic(&Options{BlockSize: 512})
	defer d.Close()
	r := rand.New(rand.NewSource(13))
	items := crashItems(r, 600, 0)
	carries := 0
	for _, it := range items {
		mustInsert(t, d, it)
		if d.BufferLen() == 0 {
			carries++
		}
	}
	st := d.CompactionStats()
	absorbed := uint64(len(items) - d.BufferLen())
	if st.MergesCompleted != uint64(carries) || st.ItemsAbsorbed != absorbed || st.MergesAborted != 0 || st.GCRebuilds != 0 {
		t.Fatalf("after %d carries that took %d items out of the buffer: %+v", carries, absorbed, st)
	}
	if st.PagesRewritten != d.IOStats().Writes {
		t.Errorf("%d pages rewritten, %d written", st.PagesRewritten, d.IOStats().Writes)
	}
	if st.ItemsMerged <= st.ItemsAbsorbed || st.WriteAmplification != float64(st.ItemsMerged)/float64(st.ItemsAbsorbed) {
		t.Errorf("write amplification %.2f, merged %d, absorbed %d; want merged / absorbed, above 1",
			st.WriteAmplification, st.ItemsMerged, st.ItemsAbsorbed)
	}
	if st.PinnedPages != 0 {
		t.Errorf("%d pages still pinned with no readers", st.PinnedPages)
	}
	for _, it := range items[:400] {
		mustDelete(t, d, it)
	}
	gc := d.CompactionStats()
	if gc.GCRebuilds == 0 || gc.MergesCompleted != st.MergesCompleted {
		t.Errorf("after deleting two thirds: %+v; want a tombstone rebuild and no carry", gc)
	}
	mustFlush(t, d)
	if got := d.CompactionStats(); got.GCRebuilds != gc.GCRebuilds || got.MergesCompleted != gc.MergesCompleted {
		t.Errorf("a flush moved the counters from %+v to %+v", gc, got)
	}
}
