package rtree

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/storage"
	"prtree/internal/zoo"
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
	items := xSorted(zoo.Uniform(n, 0.05, seed))
	var leaves []ChildEntry
	for lo := 0; lo < len(items); lo += 16 {
		leaves = append(leaves, b.WriteLeaf(items[lo:min(lo+16, len(items))]))
	}
	return b.FinishPacked(leaves), disk
}

// TestConcurrentQueryStress runs every read-path flavor from many
// goroutines against one shared tree while another goroutine reads and
// resets the I/O counters — the full concurrent read contract, exercised
// under -race in CI with -count=2.
func TestConcurrentQueryStress(t *testing.T) {
	defer allowParallelism()()
	tr, disk := concurrentTestTree(4000, 11, -1)
	queries := zoo.Windows(24, 13)

	wantCollect := make([][]geom.Item, len(queries))
	wantContain := make([]int, len(queries))
	for i, q := range queries {
		wantCollect[i] = windowItems(tr, q)
		st, _ := tr.RunWindow(q, true, nil, RunOptions{})
		wantContain[i] = st.Results
	}
	wantKNN, _, _ := tr.AppendNearest(nil, 0.5, 0.5, 10, RunOptions{})
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
			_ = tr.Pager().CacheStats()
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
					got, _, _ := tr.AppendNearest(nil, 0.5, 0.5, 10, RunOptions{})
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
