package storage

import (
	"bytes"
	"sync"
	"testing"
)

// pagerInputs are the backends the concurrent first-touch tests run over:
// a Disk, and a page file, whose misses take mapped views where page files
// map themselves and verified preads elsewhere. Each input makes n pages,
// page i stamped with first byte i+1.
var pagerInputs = []struct {
	name string
	make func(t *testing.T, n int) Backend
}{
	{"disk", func(t *testing.T, n int) Backend { return newPagerDisk(t, n) }},
	{"file", newPagerFile},
}

// newPagerFile is newPagerDisk over a synced page file.
func newPagerFile(t *testing.T, n int) Backend {
	t.Helper()
	fb, err := CreateFile(tempIndex(t), 128)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	for i := 0; i < n; i++ {
		fb.Write(fb.Alloc(), bytes.Repeat([]byte{byte(i + 1)}, 128))
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	return fb
}

// TestPagerConcurrentReaders hammers an unbounded pager from many
// goroutines with overlapping page sets — the access pattern of concurrent
// queries (run under -race in CI). Misses filled under the pager's lock must
// keep the counters exactly serial: one miss and one disk read per distinct
// page, a hit for every other access.
func TestPagerConcurrentReaders(t *testing.T) {
	const (
		pages     = 64
		workers   = 8
		perWorker = 400
	)
	d := newPagerDisk(t, pages)
	p := NewPager(d, -1)
	d.ResetStats()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := PageID((w*7 + i*13) % pages)
				got := p.Read(id)
				if got[0] != byte(id+1) {
					t.Errorf("page %d content = %d", id, got[0])
					return
				}
			}
		}(w)
	}
	wg.Wait()

	hits, misses := hitsMisses(p)
	if misses != pages {
		t.Errorf("misses = %d, want %d (one per distinct page)", misses, pages)
	}
	if total := hits + misses; total != workers*perWorker {
		t.Errorf("hits+misses = %d, want %d", total, workers*perWorker)
	}
	if got := d.Stats().Reads; got != pages {
		t.Errorf("disk reads = %d, want %d (single-flight fills)", got, pages)
	}
	if got := p.CachedPages(); got != pages {
		t.Errorf("CachedPages = %d, want %d", got, pages)
	}
}

// TestPagerConcurrentSingleFlight aims every goroutine at the same page at
// once: exactly one disk read may happen, and every waiter must observe the
// filled bytes — over a Disk and over a page file's views.
func TestPagerConcurrentSingleFlight(t *testing.T) {
	for _, in := range pagerInputs {
		t.Run(in.name, func(t *testing.T) {
			const workers = 16
			d := in.make(t, 1)
			p := NewPager(d, -1)
			d.ResetStats()

			start := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func() {
					defer wg.Done()
					<-start
					if got := p.Read(0); got[0] != 1 {
						t.Errorf("read returned %d", got[0])
					}
				}()
			}
			close(start)
			wg.Wait()

			if got := d.Stats().Reads; got != 1 {
				t.Errorf("disk reads = %d, want 1", got)
			}
			hits, misses := hitsMisses(p)
			if misses != 1 || hits != workers-1 {
				t.Errorf("hits=%d misses=%d, want %d/1", hits, misses, workers-1)
			}
		})
	}
}

// TestPagerConcurrentCapacityZero checks the no-cache regime stays exactly
// serial under concurrency: every unpinned access reads the disk, pinned
// pages always hit.
func TestPagerConcurrentCapacityZero(t *testing.T) {
	const (
		workers   = 8
		perWorker = 100
	)
	d := newPagerDisk(t, 2)
	p := NewPager(d, 0)
	p.Pin(1)
	d.ResetStats()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if got := p.Read(0); got[0] != 1 {
					t.Errorf("page 0 content = %d", got[0])
					return
				}
				if got := p.Read(1); got[0] != 2 {
					t.Errorf("pinned page content = %d", got[0])
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := d.Stats().Reads; got != workers*perWorker {
		t.Errorf("disk reads = %d, want %d (unpinned reads are uncached)", got, workers*perWorker)
	}
	hits, misses := hitsMisses(p)
	if hits != workers*perWorker || misses != workers*perWorker {
		t.Errorf("hits=%d misses=%d, want %d/%d", hits, misses, workers*perWorker, workers*perWorker)
	}
}

// TestPagerConcurrentStatsReaders calls HitRate and CachedPages while
// readers run — the counter-read race the facade's IOStats fix covers.
func TestPagerConcurrentStatsReaders(t *testing.T) {
	const pages = 32
	d := newPagerDisk(t, pages)
	p := NewPager(d, -1)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			h, m := hitsMisses(p)
			if h+m > 0 && p.CachedPages() > pages {
				t.Error("impossible cache census")
				return
			}
			_ = d.Stats()
			d.ResetStats()
		}
	}()
	for i := 0; i < 2000; i++ {
		p.Read(PageID(i % pages))
	}
	close(done)
	wg.Wait()
}

// TestPagerConcurrentPinDuringFill races Pin against readers filling the
// same pages: whichever side gets there first must do the page's single
// disk read (the other waits on the pager's lock and finds the page), no
// orphaned cache entry may survive, and reads after the pin must serve the
// pinned copy — over a Disk and over a page file's views.
func TestPagerConcurrentPinDuringFill(t *testing.T) {
	for _, in := range pagerInputs {
		t.Run(in.name, func(t *testing.T) {
			const pages = 32
			for round := 0; round < 20; round++ {
				d := in.make(t, pages)
				p := NewPager(d, -1)
				d.ResetStats()
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; i < pages; i++ {
						p.Read(PageID(i))
					}
				}()
				go func() {
					defer wg.Done()
					for i := pages - 1; i >= 0; i-- {
						p.Pin(PageID(i))
					}
				}()
				wg.Wait()
				if got := d.Stats().Reads; got != pages {
					t.Fatalf("round %d: %d disk reads for %d pages under a Pin/Read race", round, got, pages)
				}
				if got := p.CachedPages(); got != pages {
					t.Fatalf("round %d: CachedPages = %d, want %d (orphaned entries?)", round, got, pages)
				}
				d.ResetStats()
				for i := 0; i < pages; i++ {
					if got := p.Read(PageID(i)); got[0] != byte(i+1) {
						t.Fatalf("page %d content = %d", i, got[0])
					}
					p.Invalidate(PageID(i))
				}
				if got := d.Stats().Reads; got != 0 {
					t.Fatalf("round %d: %d disk reads after everything pinned/cached", round, got)
				}
				// After Invalidate the pages are gone: a released pin reloads
				// from disk. (An orphaned entry beside a pin shows in
				// CachedPages above.)
				d.ResetStats()
				p.Read(0)
				if got := d.Stats().Reads; got != 1 {
					t.Fatalf("round %d: unpinned page served from a stale cache entry", round)
				}
			}
		})
	}
}

// TestPagerConcurrentDropCache empties a bounded pager while a reader
// reads through it (run under -race in CI): the reader's path must not
// race with the reset of the LRU, and every read counts once.
func TestPagerConcurrentDropCache(t *testing.T) {
	p := NewPager(newPagerDisk(t, 8), 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			p.DropCache()
		}
	}()
	for i := 0; i < 2000; i++ {
		if got := p.Read(PageID(i % 8)); got[0] != byte(i%8+1) {
			t.Fatalf("page %d content = %d", i%8, got[0])
		}
	}
	wg.Wait()
	if hits, misses := hitsMisses(p); hits+misses != 2000 {
		t.Errorf("hits+misses = %d, want 2000", hits+misses)
	}
}
