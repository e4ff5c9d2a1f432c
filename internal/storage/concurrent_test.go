package storage

import (
	"sync"
	"testing"
)

// TestDiskConcurrentProducers hammers Alloc/Write/ReadNoCopy/Free from
// many goroutines, concurrent users of one store (run under -race in CI).
// Counter totals and page accounting must come out exactly as if the
// operations had run serially.
func TestDiskConcurrentProducers(t *testing.T) {
	const (
		workers   = 8
		perWorker = 200
	)
	d := NewDisk(256)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			ids := make([]PageID, 0, perWorker)
			buf := make([]byte, 256)
			for i := 0; i < perWorker; i++ {
				id := d.Alloc()
				buf[0] = byte(w)
				buf[1] = byte(i)
				d.Write(id, buf)
				ids = append(ids, id)
			}
			for i, id := range ids {
				got := d.ReadNoCopy(id)
				if got[0] != byte(w) || got[1] != byte(i) {
					t.Errorf("worker %d page %d corrupted: % x", w, i, got[:2])
					return
				}
			}
			for _, id := range ids[:perWorker/2] {
				d.Free(id)
			}
		}(w)
	}
	wg.Wait()
	st := d.Stats()
	if st.Writes != workers*perWorker || st.Reads != workers*perWorker {
		t.Errorf("stats %v, want %d writes and reads", st, workers*perWorker)
	}
	// Frees interleave with other workers' allocations, so pages may be
	// reused; the net in-use count is exact, the high-water mark bounded.
	if d.PagesInUse() != workers*perWorker/2 {
		t.Errorf("PagesInUse = %d, want %d", d.PagesInUse(), workers*perWorker/2)
	}
	if n := d.NumPages(); n < d.PagesInUse() || n > workers*perWorker {
		t.Errorf("NumPages = %d outside [%d, %d]", n, d.PagesInUse(), workers*perWorker)
	}
}
