// Package parallel provides the bounded worker-pool discipline shared by
// every concurrent stage in this repository: the in-memory builds' sorts,
// forked kd recursions and leaf encoding, and the shard loads.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Bound clamps a requested worker count to [1, GOMAXPROCS]: more goroutines
// than schedulable threads only add contention, and anything below one
// means serial.
func Bound(workers int) int {
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Run executes fn(0), ..., fn(n-1) on up to workers goroutines (bounded by
// GOMAXPROCS) and returns when all calls have finished. With workers <= 1
// the calls run serially on the caller's goroutine. Iterations are claimed
// from a shared counter, so callers must not assume any execution order; a
// panic in any call is re-raised on the caller's goroutine once every
// worker has stopped.
func Run(workers, n int, fn func(i int)) {
	workers = Bound(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		pmu    sync.Mutex
		pval   any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pmu.Lock()
					if pval == nil {
						pval = r
					}
					pmu.Unlock()
				}
			}()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if pval != nil {
		panic(pval)
	}
}
