package rtree

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/parallel"
	"prtree/internal/storage"
)

// allowParallelism raises GOMAXPROCS so parallel.Run actually fans out
// even on single-CPU machines (workers are clamped to GOMAXPROCS). Returns
// the restore function.
func allowParallelism() func() {
	old := runtime.GOMAXPROCS(8)
	return func() { runtime.GOMAXPROCS(old) }
}

// concurrentTestTree packs n random rectangles, ordered by x, into a tree of
// fanout 16 on a pager with the given cache capacity.
func concurrentTestTree(n int, seed int64, capacity int) (*Tree, *storage.Disk) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	b := NewBuilder(storage.NewPager(disk, capacity), Config{Fanout: 16})
	items := xSorted(randItems(n, seed))
	var leaves []ChildEntry
	for lo := 0; lo < len(items); lo += 16 {
		leaves = append(leaves, b.WriteLeaf(items[lo:min(lo+16, len(items))]))
	}
	return b.FinishPacked(leaves), disk
}

func concurrentTestQueries(n int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]geom.Rect, n)
	for i := range qs {
		x, y := rng.Float64(), rng.Float64()
		s := rng.Float64() * 0.3
		qs[i] = geom.NewRect(x, y, x+s, y+s)
	}
	return qs
}

// TestConcurrentQueriesMatchSequential is the equivalence property test:
// for every seed, cache capacity and worker count, one query per goroutine
// must return the same per-query items (in the same order) and the same
// per-query stats as N sequential Query calls. With an eviction-free cache
// (unbounded or disabled) the aggregate block-I/O must also be
// bit-identical to the sequential run at every worker count.
func TestConcurrentQueriesMatchSequential(t *testing.T) {
	defer allowParallelism()()
	for _, seed := range []int64{1, 7, 42} {
		for _, capacity := range []int{-1, 0, 3} {
			tr, disk := concurrentTestTree(3000, seed, capacity)
			queries := concurrentTestQueries(40, seed+100)

			tr.Pager().DropCache()
			disk.ResetStats()
			wantItems := make([][]geom.Item, len(queries))
			wantStats := make([]QueryStats, len(queries))
			for i, q := range queries {
				wantStats[i] = window(tr, q, func(it geom.Item) bool {
					wantItems[i] = append(wantItems[i], it)
					return true
				})
			}
			serialIO := disk.Stats()

			for _, workers := range []int{1, 2, 4, 8} {
				tr.Pager().DropCache()
				disk.ResetStats()
				gotItems := make([][]geom.Item, len(queries))
				gotStats := make([]QueryStats, len(queries))
				parallel.Run(workers, len(queries), func(i int) {
					gotStats[i] = window(tr, queries[i], func(it geom.Item) bool {
						gotItems[i] = append(gotItems[i], it)
						return true
					})
				})
				concurrentIO := disk.Stats()

				for i := range queries {
					if !reflect.DeepEqual(gotStats[i], wantStats[i]) {
						t.Fatalf("seed=%d cap=%d workers=%d query %d: stats %+v, want %+v",
							seed, capacity, workers, i, gotStats[i], wantStats[i])
					}
					if !reflect.DeepEqual(gotItems[i], wantItems[i]) {
						t.Fatalf("seed=%d cap=%d workers=%d query %d: %d items, want %d (or order differs)",
							seed, capacity, workers, i, len(gotItems[i]), len(wantItems[i]))
					}
				}
				// Eviction-free regimes: each access pattern is charged as
				// serially, so total block-I/O is bit-identical. A bounded
				// LRU interleaves evictions across workers, so only the
				// per-query results and stats are deterministic there.
				if capacity <= 0 && concurrentIO != serialIO {
					t.Fatalf("seed=%d cap=%d workers=%d: aggregate I/O %v, want %v",
						seed, capacity, workers, concurrentIO, serialIO)
				}
			}
		}
	}
}

// TestConcurrentQueryStress runs every read-path flavor from many
// goroutines against one shared tree while another goroutine reads and
// resets the I/O counters — the full concurrent read contract, exercised
// under -race in CI with -count=2.
func TestConcurrentQueryStress(t *testing.T) {
	defer allowParallelism()()
	tr, disk := concurrentTestTree(4000, 11, -1)
	queries := concurrentTestQueries(24, 13)

	wantCollect := make([][]geom.Item, len(queries))
	wantContain := make([]int, len(queries))
	for i, q := range queries {
		wantCollect[i] = windowItems(tr, q)
		st, _ := tr.RunWindow(q, true, nil, RunOptions{})
		wantContain[i] = st.Results
	}
	wantKNN, _, _ := tr.RunNearest(0.5, 0.5, 10, RunOptions{})
	wantMBR := tr.MBR()

	const workers = 8
	done := make(chan struct{})
	var statsWG sync.WaitGroup
	statsWG.Add(1)
	go func() {
		defer statsWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = disk.Stats()
			_, _ = tr.Pager().HitRate()
			disk.ResetStats()
		}
	}()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 30; rep++ {
				qi := (w + rep) % len(queries)
				switch rep % 4 {
				case 0:
					if got := windowItems(tr, queries[qi]); !reflect.DeepEqual(got, wantCollect[qi]) {
						t.Errorf("worker %d: windowItems(%d) diverged", w, qi)
						return
					}
				case 1:
					if st, _ := tr.RunWindow(queries[qi], true, nil, RunOptions{}); st.Results != wantContain[qi] {
						t.Errorf("worker %d: containment RunWindow(%d) = %d, want %d", w, qi, st.Results, wantContain[qi])
						return
					}
				case 2:
					got, _, _ := tr.RunNearest(0.5, 0.5, 10, RunOptions{})
					if len(got) != len(wantKNN) {
						t.Errorf("worker %d: kNN returned %d", w, len(got))
						return
					}
					for i := range got {
						if got[i].Dist2 != wantKNN[i].Dist2 {
							t.Errorf("worker %d: kNN[%d] dist %v, want %v", w, i, got[i].Dist2, wantKNN[i].Dist2)
							return
						}
					}
				case 3:
					if got := tr.MBR(); got != wantMBR {
						t.Errorf("worker %d: MBR diverged", w)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	statsWG.Wait()
}
