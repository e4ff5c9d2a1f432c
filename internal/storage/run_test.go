package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// pageBytes is page id's content in the run tests: short, so a fresh
// slot's zero tail shows.
func pageBytes(id PageID) []byte {
	return bytes.Repeat([]byte{byte(id%251 + 1)}, 64+int(id%7))
}

// TestFileBackendWriteRuns: fresh pages written in page order wait in the
// run, which goes out whole when it fills, and every read, commit and
// close sees them — each with a zero tail, as a fresh slot reads.
func TestFileBackendWriteRuns(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	slot := int64(fb.slotSize)
	base := fb.extent.Load()
	fb.Begin()
	const n = runSlots + 5
	for i := 0; i < n; i++ {
		id := fb.Alloc()
		fb.Write(id, pageBytes(id))
		if i == runSlots-2 && fb.extent.Load() != base {
			t.Fatalf("%d fresh pages moved the extent to %d: the run went out early", i+1, fb.extent.Load())
		}
	}
	if got, want := fb.extent.Load(), base+runSlots*slot; got != want {
		t.Fatalf("after a full run the extent is %d, want %d", got, want)
	}
	// The last five are in the run; a read of one sends it out.
	buf := make([]byte, 512)
	fb.Read(n-1, buf)
	if !bytes.Equal(buf[:len(pageBytes(n-1))], pageBytes(n-1)) {
		t.Fatalf("page %d reads %x, want its bytes", n-1, buf[:8])
	}
	if got, want := fb.extent.Load(), base+n*slot; got != want {
		t.Fatalf("after a read the extent is %d, want %d", got, want)
	}
	// Two more in the run, then a commit and a close.
	for i := 0; i < 2; i++ {
		id := fb.Alloc()
		fb.Write(id, pageBytes(id))
	}
	fb.SetMeta([]byte("runs"))
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Fsck(); err != nil {
		t.Fatal(err)
	}
	for id := PageID(0); id < n+2; id++ {
		got := re.ReadNoCopy(id)
		want := pageBytes(id)
		if !bytes.Equal(got[:len(want)], want) || !bytes.Equal(got[len(want):], make([]byte, 512-len(want))) {
			t.Fatalf("page %d differs after reopen", id)
		}
	}
}

// TestFileBackendRunDroppedByCrash: an injected crash in the middle of a
// run leaves the run's pages unwritten, as a process killed before their
// pwrite would, however the dead handle is then used: the committed state
// survives, and nothing of the run reaches the file.
func TestFileBackendRunDroppedByCrash(t *testing.T) {
	for _, finish := range []string{"Abandon", "Close", "Rollback"} {
		t.Run(finish, func(t *testing.T) {
			path := tempIndex(t)
			fb, err := CreateFile(path, 512)
			if err != nil {
				t.Fatal(err)
			}
			if err := fb.Sync(); err != nil {
				t.Fatal(err)
			}
			size := fb.extent.Load()
			fb.Begin()
			for i := 0; i < 3; i++ {
				id := fb.Alloc()
				fb.Write(id, pageBytes(id))
			}
			fb.SetCrashAfterSteps(fb.PersistSteps() + 1)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("the armed write did not crash")
					}
				}()
				id := fb.Alloc()
				fb.Write(id, pageBytes(id))
			}()
			func() {
				defer func() { _ = recover() }() // a dead handle may panic again
				switch finish {
				case "Abandon":
					fb.Abandon()
				case "Close":
					_ = fb.Close()
				case "Rollback":
					fb.Rollback()
				}
			}()
			fb.Abandon()
			if got := fileSize(t, path); got != size {
				t.Fatalf("the file holds %d bytes after the crash, the committed state %d", got, size)
			}
			re, err := OpenFile(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.NumPages() != 0 {
				t.Fatalf("reopened with %d pages, want the committed 0", re.NumPages())
			}
		})
	}
}

// TestFileBackendRunConcurrent: writers extending the file side by side,
// each over a range of pages of its own, while readers read the pages
// each writer has finished; every read sees the page whole, and the file
// ends with every page intact. Run with -race.
func TestFileBackendRunConcurrent(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	const writers, per = 4, 3*runSlots + 3
	first := make([]PageID, writers)
	for w := range first {
		first[w] = fb.Alloc()
		for i := 1; i < per; i++ {
			fb.Alloc()
		}
	}
	var written [writers]atomic.Int32 // pages each writer has finished
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := first[w] + PageID(i)
				fb.Write(id, pageBytes(id))
				written[w].Store(int32(i + 1))
			}
		}()
		go func() {
			defer wg.Done()
			buf := make([]byte, 512)
			v := (w + 1) % writers
			for read := 0; read < per; {
				if int(written[v].Load()) <= read {
					runtime.Gosched()
					continue
				}
				id := first[v] + PageID(read)
				fb.Read(id, buf)
				if want := pageBytes(id); !bytes.Equal(buf[:len(want)], want) {
					errs <- fmt.Errorf("page %d reads %x", id, buf[:8])
					return
				}
				read++
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for id := PageID(0); int(id) < writers*per; id++ {
		got := fb.ReadNoCopy(id)
		if want := pageBytes(id); !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("page %d differs", id)
		}
	}
	if err := fb.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// TestPagerWriteDropsStaleView: a page freed, cut off by a checkpoint and
// written again as a fresh page waits in the write run, and the pager must
// not answer a read of it with the view its cache kept from the page's
// previous life — one a reader still traversing the freed tree published
// after the free invalidated it. That view shows the old slot, or lies past
// the end of the shortened file.
func TestPagerWriteDropsStaleView(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	pager := NewPager(fb, -1)
	fb.Begin()
	a, b := fb.Alloc(), fb.Alloc()
	pager.Write(a, pageBytes(a))
	pager.Write(b, pageBytes(b))
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	fb.Begin()
	pager.Invalidate(b) // the free, as rtree frees a node
	fb.Free(b)
	pager.Read(b) // a reader of the freed tree publishes b's view again
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	if fb.NumPages() != 1 {
		t.Fatalf("the checkpoint left %d pages, want b cut off", fb.NumPages())
	}
	if got := fb.Alloc(); got != b {
		t.Fatalf("reallocated page %d, want %d", got, b)
	}
	want := bytes.Repeat([]byte{0x5a}, 512)
	pager.Write(b, want)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	var got []byte
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("reading the rewritten page faulted: %v", r)
			}
		}()
		got = bytes.Clone(pager.Read(b))
	}()
	if !bytes.Equal(got, want) {
		t.Fatalf("the rewritten page reads %x…, want %x…", got[:8], want[:8])
	}
}
