package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"slices"
	"testing"
)

// Tests for the lowest-first allocator and the truncating checkpoint: the
// two halves of "a checkpointed file is as long as its last page in use".

// TestFreeHeapOrder: whatever order pages enter the list in — pushed one
// by one or loaded as a trailer and heapified — they leave it ascending.
func TestFreeHeapOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ids := make([]PageID, 500)
	for i := range ids {
		ids[i] = PageID(3 * i)
	}
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	var pushed freeHeap
	for _, id := range ids {
		pushed.push(id)
	}
	loaded := append(freeHeap(nil), ids...)
	loaded.init()
	for name, h := range map[string]freeHeap{"pushed": pushed, "loaded": loaded} {
		for want := 0; len(h) > 0; want += 3 {
			if got := h.popMin(); got != PageID(want) {
				t.Fatalf("%s: popMin = %d, want %d", name, got, want)
			}
		}
	}
}

// TestAllocLowestFirst: pages freed in any order come back ascending, on
// both stores, and a page pinned by a snapshot reader is skipped — the next
// one up is handed out at once — and comes back when the reader has left.
func TestAllocLowestFirst(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	for name, dev := range map[string]Backend{"disk": NewDisk(256), "file": fb} {
		t.Run(name, func(t *testing.T) {
			const n = 64
			for i := 0; i < n; i++ {
				dev.Write(dev.Alloc(), []byte{byte(i)})
			}
			freed := make([]PageID, 0, 40)
			for _, i := range rand.New(rand.NewSource(11)).Perm(n - 1)[:40] {
				freed = append(freed, PageID(i+1))
				dev.Free(PageID(i + 1))
			}
			reader := dev.SnapshotEnter()
			dev.Free(0) // the lowest free page, and pinned: a reader is inside
			slices.Sort(freed)
			for _, want := range freed {
				if got := dev.Alloc(); got != want {
					t.Fatalf("Alloc = %d, want %d: the lowest free page no reader pins", got, want)
				}
			}
			if got := dev.Alloc(); got != n {
				t.Fatalf("Alloc = %d with the one free page pinned, want the store extended to page %d", got, n)
			}
			dev.SnapshotLeave(reader)
			if got := dev.Alloc(); got != 0 {
				t.Fatalf("Alloc = %d after the reader left, want the page it pinned, 0", got)
			}
		})
	}
}

// fileSize returns the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestCheckpointTruncatesFreeTail: a checkpoint gives up the run of free
// pages that ends the file — page count, free list and file size all drop —
// keeps the holes below it on the list, stops at a page a snapshot reader
// pins, and survives a reopen. Nothing is given up while the log holds no
// committed state to recover the old geometry from.
func TestCheckpointTruncatesFreeTail(t *testing.T) {
	const bs = 256
	path := tempIndex(t)
	fb, err := CreateFile(path, bs)
	if err != nil {
		t.Fatal(err)
	}
	page := func(i int) []byte { return bytes.Repeat([]byte{0x40 + byte(i)}, bs) }
	fb.Begin()
	for i := 0; i < 10; i++ {
		fb.Write(fb.Alloc(), page(i))
	}
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	size := func(pages, free int) int64 { return int64(bs) + int64(pages)*int64(bs+pageTrailerSize) + 4*int64(free) }
	sync := func(wantPages, wantFree int) {
		t.Helper()
		if err := fb.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := fb.NumPages(); got != wantPages {
			t.Fatalf("NumPages = %d after the checkpoint, want %d", got, wantPages)
		}
		if got := fb.NumPages() - fb.PagesInUse(); got != wantFree {
			t.Fatalf("%d free pages after the checkpoint, want %d", got, wantFree)
		}
		if got, want := fileSize(t, path), size(wantPages, wantFree); got != want {
			t.Fatalf("file is %d bytes, want %d: header, %d slots, %d trailer entries", got, want, wantPages, wantFree)
		}
	}
	sync(10, 0)

	// Freed outside any transaction, with the log empty: the header is the
	// only record, so the geometry stays.
	fb.Free(9)
	sync(10, 1)

	// A hole and, under a reader's eyes, more of the tail.
	reader := fb.SnapshotEnter()
	fb.Begin()
	fb.Free(2)
	fb.Free(7)
	fb.Free(8)
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	sync(9, 3) // page 9, freed before the reader came, goes; 8 is pinned and stops the run
	buf := make([]byte, bs)
	if fb.Read(7, buf); !bytes.Equal(buf, page(7)) {
		t.Fatal("a pinned page lost its bytes to the checkpoint")
	}
	fb.SnapshotLeave(reader)
	sync(9, 3) // nothing committed since the last checkpoint: not yet

	fb.Begin()
	fb.SetMeta([]byte("a committed state"))
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	sync(7, 1) // pages 7 and 8 are gone too; hole 2 stays
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	fb, err = OpenFile(path, bs)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if fb.NumPages() != 7 || fb.PagesInUse() != 6 {
		t.Fatalf("reopened to %d pages, %d in use; want 7 and 6", fb.NumPages(), fb.PagesInUse())
	}
	for i := 0; i < 7; i++ {
		if i == 2 {
			continue
		}
		if fb.Read(PageID(i), buf); !bytes.Equal(buf, page(i)) {
			t.Fatalf("page %d changed across the truncating checkpoint", i)
		}
	}
	if a, b := fb.Alloc(), fb.Alloc(); a != 2 || b != 7 {
		t.Fatalf("Alloc, Alloc = %d, %d; want the hole, then the file extended again: 2, 7", a, b)
	}
	// A page written where the file was cut reads back as written, through
	// the pager's view of it too.
	fb.Write(7, page(27))
	if got := NewPager(fb, -1).Read(7); !bytes.Equal(got, page(27)) {
		t.Fatal("a page re-extended after a truncation reads back stale")
	}
}

// TestCheckpointTruncationCrashEveryStep kills a checkpoint that gives up a
// free tail before each of its persistence steps. Whichever of header,
// trailer, truncation and log retirement had happened, the reopened file
// holds every live page, counts none twice and ends where its last page in
// use ends.
func TestCheckpointTruncationCrashEveryStep(t *testing.T) {
	const bs = 256
	dir := t.TempDir()
	seed := dir + "/seed.pr"
	page := func(i int) []byte { return bytes.Repeat([]byte{0x40 + byte(i)}, bs) }
	fb, err := CreateFile(seed, bs)
	if err != nil {
		t.Fatal(err)
	}
	fb.Begin()
	for i := 0; i < 12; i++ {
		fb.Write(fb.Alloc(), page(i))
	}
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	work := dir + "/work.pr"
	for k := int64(1); ; k++ {
		if k > 20 {
			t.Fatalf("the checkpoint still crashes after %d steps", k)
		}
		for _, suffix := range []string{"", ".wal"} {
			data, err := os.ReadFile(seed + suffix)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(work+suffix, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fb, err := OpenFile(work, bs)
		if err != nil {
			t.Fatal(err)
		}
		fb.Begin()
		for _, id := range []PageID{3, 8, 9, 10, 11} {
			fb.Free(id)
		}
		if err := fb.Commit(); err != nil {
			t.Fatal(err)
		}
		fb.SetCrashAfterSteps(fb.PersistSteps() + k)
		crashed := true
		func() {
			defer func() {
				if r := recover(); r == nil {
					crashed = false
				} else if err, ok := r.(error); !ok || !errors.Is(err, ErrInjectedFault) {
					t.Fatalf("step %d: panic %v, want an injected fault", k, r)
				}
			}()
			if err := fb.Sync(); err != nil {
				t.Fatal(err)
			}
		}()
		fb.Abandon()

		re, err := OpenFile(work, bs)
		if err != nil {
			t.Fatalf("killed at step %d: reopen: %v", k, err)
		}
		if re.NumPages() != 8 || re.PagesInUse() != 7 {
			t.Fatalf("killed at step %d: reopened to %d pages, %d in use; want 8 and 7", k, re.NumPages(), re.PagesInUse())
		}
		buf := make([]byte, bs)
		for i := 0; i < 8; i++ {
			if i == 3 {
				continue
			}
			if re.Read(PageID(i), buf); !bytes.Equal(buf, page(i)) {
				t.Fatalf("killed at step %d: page %d changed", k, i)
			}
		}
		if err := re.Fsck(); err != nil {
			t.Fatalf("killed at step %d: %v", k, err)
		}
		if a, b := re.Alloc(), re.Alloc(); a != 3 || b != 8 {
			t.Fatalf("killed at step %d: Alloc, Alloc = %d, %d; want 3, 8", k, a, b)
		}
		re.Abandon()
		if !crashed {
			return
		}
	}
}
