package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// pageBytes is page id's content in the write tests: short, so a fresh
// slot's zero tail shows.
func pageBytes(id PageID) []byte {
	return bytes.Repeat([]byte{byte(id%251 + 1)}, 64+int(id%7))
}

// runOf returns the contents of pages id, id+1, … id+n-1.
func runOf(id PageID, n int) [][]byte {
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = pageBytes(id + PageID(i))
	}
	return pages
}

// wantSlot is the slot a page of data occupies in a page file of the given
// block size: data, zeros to the end of the block, u32 CRC32C, u32 length.
func wantSlot(data []byte, blockSize int) []byte {
	slot := make([]byte, blockSize, blockSize+pageTrailerSize)
	copy(slot, data)
	slot = binary.LittleEndian.AppendUint32(slot, crc32.Checksum(data, castagnoli))
	return binary.LittleEndian.AppendUint32(slot, uint32(len(data)))
}

// TestFileBackendWriteRuns: a Write is in the file when it returns, as
// os.ReadFile sees it — a fresh page alone, a run of consecutive fresh
// pages handed to one Write, a run over pages recycled from the free
// list — each slot its data, the zero tail, and the checksum trailer. A
// run counts one write and one persistence step a page, and every page
// reads back after a commit, a close and a reopen.
func TestFileBackendWriteRuns(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	inFile := func(id PageID, data []byte) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := fb.offset(id)
		if int64(len(raw)) < off+int64(fb.slotSize) {
			t.Fatalf("the file holds %d bytes, page %d's slot ends at %d: the write is not in it", len(raw), id, off+int64(fb.slotSize))
		}
		if got := raw[off : off+int64(fb.slotSize)]; !bytes.Equal(got, wantSlot(data, 512)) {
			t.Fatalf("page %d's slot in the file is not its data, zero tail and trailer", id)
		}
	}
	write := func(id PageID, pages ...[]byte) {
		t.Helper()
		s0, w0 := fb.PersistSteps(), fb.Stats().Writes
		fb.Write(id, pages...)
		if steps, writes := fb.PersistSteps()-s0, fb.Stats().Writes-w0; steps != int64(len(pages)) || writes != uint64(len(pages)) {
			t.Fatalf("a Write of %d pages took %d persistence steps and counted %d writes", len(pages), steps, writes)
		}
		for i, data := range pages {
			inFile(id+PageID(i), data)
		}
	}

	fb.Begin()
	first := fb.Alloc()
	write(first, pageBytes(first))
	run := fb.Alloc()
	for i := 1; i < 5; i++ {
		fb.Alloc()
	}
	write(run, runOf(run, 5)...)
	for id := run + 1; id < run+4; id++ {
		fb.Free(id)
	}
	fb.SetMeta([]byte("runs"))
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	// The freed pages come back lowest first, zeroed; a run over them is in
	// the file too.
	fb.Begin()
	for id := run + 1; id < run+4; id++ {
		if got := fb.Alloc(); got != id {
			t.Fatalf("recycled page %d, want %d", got, id)
		}
	}
	recycled := [][]byte{bytes.Repeat([]byte{0xa1}, 512), []byte("short"), bytes.Repeat([]byte{0xa3}, 300)}
	write(run+1, recycled...)
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
	for id := PageID(0); int(id) < re.NumPages(); id++ {
		want := pageBytes(id)
		if id > run && id < run+4 {
			want = recycled[id-run-1]
		}
		if got := re.ReadNoCopy(id); !bytes.Equal(got, wantSlot(want, 512)[:512]) {
			t.Fatalf("page %d differs after reopen", id)
		}
	}
}

// TestFileBackendRunDroppedByCrash: an injected crash at any page of a run
// handed to one Write kills the process before the run's single pwrite, so
// no byte of it reaches the file, however the dead handle is then used,
// and after a reopen no page of it is reachable: the committed state
// survives as it was.
func TestFileBackendRunDroppedByCrash(t *testing.T) {
	const k = 4
	for _, finish := range []string{"Abandon", "Close", "Rollback"} {
		t.Run(finish, func(t *testing.T) {
			for step := int64(1); step <= k; step++ {
				path := tempIndex(t)
				fb, err := CreateFile(path, 512)
				if err != nil {
					t.Fatal(err)
				}
				fb.Begin()
				committed := fb.Alloc()
				fb.Write(committed, pageBytes(committed))
				if err := fb.Commit(); err != nil {
					t.Fatal(err)
				}
				size := fileSize(t, path)
				fb.Begin()
				id := fb.Alloc()
				for i := 1; i < k; i++ {
					fb.Alloc()
				}
				fb.SetCrashAfterSteps(fb.PersistSteps() + step)
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("a crash armed at page %d of the run did not fire", step)
						}
					}()
					fb.Write(id, runOf(id, k)...)
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
					t.Fatalf("crash at page %d: the file holds %d bytes, the committed state %d", step, got, size)
				}
				re, err := OpenFile(path, 0)
				if err != nil {
					t.Fatal(err)
				}
				if re.NumPages() != 1 || !bytes.Equal(re.ReadNoCopy(committed)[:len(pageBytes(committed))], pageBytes(committed)) {
					t.Fatalf("crash at page %d: reopened with %d pages, want the committed one intact", step, re.NumPages())
				}
				re.Close()
			}
		})
	}
}

// TestFileBackendWriteConcurrent: writers extending the file side by side,
// each over a range of pages of its own in runs of one to five pages a
// Write, while readers read the pages each writer has finished, through
// Read and through the mapping's views; every read sees the page whole,
// and the file ends with every page intact. Run with -race.
func TestFileBackendWriteConcurrent(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	const writers, per = 4, 60
	first := make([]PageID, writers)
	for w := range first {
		first[w] = fb.Alloc()
		for i := 1; i < per; i++ {
			fb.Alloc()
		}
	}
	var written [writers]atomic.Int32 // pages each writer has finished
	var wg sync.WaitGroup
	errs := make(chan error, 2*writers)
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < per; {
				n := min(1+(i+w)%5, per-i)
				id := first[w] + PageID(i)
				fb.Write(id, runOf(id, n)...)
				i += n
				written[w].Store(int32(i))
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
				got := buf
				if read%2 == 0 {
					fb.Read(id, buf)
				} else {
					got = fb.ReadNoCopy(id)
				}
				if want := pageBytes(id); !bytes.Equal(got, wantSlot(want, 512)[:512]) {
					errs <- fmt.Errorf("page %d reads %x", id, got[:8])
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
		if got, want := fb.ReadNoCopy(id), pageBytes(id); !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("page %d differs", id)
		}
	}
	if err := fb.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// TestPagerWriteDropsStaleView: pages freed, cut off by a checkpoint and
// written again by one multi-page Write must not be answered from the
// views the pager's cache kept from their previous life — ones a reader
// still traversing the freed tree published after the free invalidated
// them, which lie past the end of the shortened file. Each page of the
// run is a miss after the Write and reads its new bytes.
func TestPagerWriteDropsStaleView(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	pager := NewPager(fb, -1)
	fb.Begin()
	a := fb.Alloc()
	b, c := fb.Alloc(), fb.Alloc()
	pager.Write(a, runOf(a, 3)...)
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	fb.Begin()
	for _, id := range []PageID{b, c} {
		pager.Invalidate(id) // the free, as rtree frees a node
		fb.Free(id)
		pager.Read(id) // a reader of the freed tree publishes the view again
	}
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	if fb.NumPages() != 1 {
		t.Fatalf("the checkpoint left %d pages, want b and c cut off", fb.NumPages())
	}
	if got, got2 := fb.Alloc(), fb.Alloc(); got != b || got2 != c {
		t.Fatalf("reallocated pages %d and %d, want %d and %d", got, got2, b, c)
	}
	want := [][]byte{bytes.Repeat([]byte{0x5a}, 512), bytes.Repeat([]byte{0x5b}, 512)}
	pager.Write(b, want...)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for i, id := range []PageID{b, c} {
		misses := pager.CacheStats().Misses
		var got []byte
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("reading the rewritten page %d faulted: %v", id, r)
				}
			}()
			got = bytes.Clone(pager.Read(id))
		}()
		if pager.CacheStats().Misses != misses+1 {
			t.Fatalf("page %d was answered from the cache after the Write", id)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("the rewritten page %d reads %x…, want %x…", id, got[:8], want[i][:8])
		}
	}
}
