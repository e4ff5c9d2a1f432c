package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// The page file's two read paths — Read's verified pread everywhere, and
// on platforms that have it the views ReadNoCopy lends out of the file's
// own mapping — must agree on every page.

// needMapping skips the test on a platform whose page files do not map
// themselves.
func needMapping(t *testing.T) {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("page files do not map themselves on this platform")
	}
}

// viewOf is ReadNoCopy of a page that must lend a view of the file's own
// mapping.
func viewOf(t *testing.T, fb *FileBackend, id PageID) []byte {
	t.Helper()
	data := fb.ReadNoCopy(id)
	if !fb.lendsView(id, data) {
		t.Fatalf("ReadNoCopy of page %d lent no view of the mapping", id)
	}
	return data
}

// TestCountingReadNoCopyCountsDemandReads: a view the page file lends is
// one demand read, a page without a view one read too (its pread copy), and
// only the lent view is the mapping, so a pager's miss costs one read on
// the page file as on a Disk.
func TestCountingReadNoCopyCountsDemandReads(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	written, blank := fb.Alloc(), fb.Alloc()
	fb.Write(written, bytes.Repeat([]byte{1}, 128))
	needMapping(t)
	fb.ResetStats()
	viewOf(t, fb, written)
	if st := fb.Stats(); st.Reads != 1 {
		t.Errorf("a view taken counted %d reads, want 1", st.Reads)
	}
	if fb.view(blank) != nil {
		t.Fatal("a never-written page has a view")
	}
	if st := fb.Stats(); st.Reads != 1 {
		t.Errorf("a refused view counted a read: %d, want 1", st.Reads)
	}
	if got := fb.ReadNoCopy(blank); !bytes.Equal(got, make([]byte, 128)) {
		t.Errorf("a never-written page reads %x…, want zeros", got[:8])
	}
	if st := fb.Stats(); st.Reads != 2 {
		t.Errorf("the pread copy of a page without a view counted %d reads in all, want 2", st.Reads)
	}
	disk := NewDisk(128)
	onDisk := disk.Alloc()
	disk.Write(onDisk, bytes.Repeat([]byte{1}, 128))
	fb.ResetStats()
	disk.ResetStats()
	NewPager(fb, 0).Read(written)
	NewPager(disk, 0).Read(onDisk)
	if f, d := fb.Stats(), disk.Stats(); f != d || f.Reads != 1 {
		t.Errorf("a pager miss counted %v on the page file, %v on a Disk; want one read each", f, d)
	}
}

func TestFileReadBlocksMatchesPerPageReads(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	const n = 40
	ids := make([]PageID, n)
	want := make(map[PageID][]byte, n+1)
	for i := range ids {
		ids[i] = fb.Alloc()
		data := bytes.Repeat([]byte{byte(i + 1)}, 50+i)
		fb.Write(ids[i], data)
		want[ids[i]] = append(data, make([]byte, 256-len(data))...)
	}
	// One allocated-but-unwritten page (reads as zeros, has no view), and a
	// shuffled order so neighbours are not read in sequence.
	blank := fb.Alloc()
	want[blank] = make([]byte, 256)
	rng := rand.New(rand.NewSource(7))
	order := append(append([]PageID{}, ids...), blank)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	maps := runtime.GOOS == "linux"
	for _, id := range order {
		got := make([]byte, 256)
		fb.Read(id, got)
		if !bytes.Equal(got, want[id]) {
			t.Errorf("Read of page %d diverges from what was written", id)
		}
		v := fb.ReadNoCopy(id)
		if lent := fb.lendsView(id, v); maps && lent != (id != blank) {
			t.Errorf("page %d: view lent = %v", id, lent)
		}
		if !bytes.Equal(v, got) {
			t.Errorf("ReadNoCopy of page %d diverges from Read", id)
		}
	}
}

func TestFileReadBlocksShortBuffers(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	a, b := fb.Alloc(), fb.Alloc()
	fb.Write(a, bytes.Repeat([]byte{0xaa}, 128))
	fb.Write(b, bytes.Repeat([]byte{0xbb}, 128))
	short := make([]byte, 16)
	full := make([]byte, 128)
	fb.Read(a, short)
	fb.Read(b, full)
	if !bytes.Equal(short, bytes.Repeat([]byte{0xaa}, 16)) {
		t.Error("short buffer not filled with the page prefix")
	}
	if !bytes.Equal(full, bytes.Repeat([]byte{0xbb}, 128)) {
		t.Error("full buffer wrong")
	}
}

func TestFileReadBlocksChecksumPanic(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	id := fb.Alloc()
	fb.Write(id, bytes.Repeat([]byte{5}, 128))
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	corruptPageByte(t, path, 128, id)
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Abandon()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("read of a corrupt page did not panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrChecksum) {
			t.Fatalf("panic %v, want ErrChecksum", r)
		}
	}()
	re.Read(id, make([]byte, 128))
}

// --- The mapping ---

func newMmapFixture(t *testing.T, blockSize, pages int) (*FileBackend, []PageID) {
	t.Helper()
	needMapping(t)
	fb, err := CreateFile(tempIndex(t), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = fb.Alloc()
		fb.Write(ids[i], bytes.Repeat([]byte{byte(i + 1)}, blockSize))
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	return fb, ids
}

func TestMmapReadsMatchFileReads(t *testing.T) {
	fb, ids := newMmapFixture(t, 256, 10)
	for _, id := range ids {
		want := make([]byte, 256)
		fb.Read(id, want)
		if !bytes.Equal(viewOf(t, fb, id), want) {
			t.Errorf("view of page %d diverges", id)
		}
	}
}

func TestMmapWriteCoherence(t *testing.T) {
	fb, ids := newMmapFixture(t, 128, 3)
	id := ids[1]
	before := viewOf(t, fb, id)
	fb.Write(id, bytes.Repeat([]byte{0x7e}, 128))
	want := bytes.Repeat([]byte{0x7e}, 128)
	if !bytes.Equal(viewOf(t, fb, id), want) {
		t.Error("view is stale after the write")
	}
	if !bytes.Equal(before, want) {
		t.Error("a view taken before the write does not show it")
	}
}

// TestMmapGrowthKeepsViews: the mapping only grows. A view taken when the
// file held 300 pages still reads its page after the file has grown tenfold
// (past what any reservation made at 300 pages covers) and been
// checkpointed — the sequence that unmapped it under the cache when a Sync
// remapped — and the pages appended since have views of their own, before
// any Sync.
func TestMmapGrowthKeepsViews(t *testing.T) {
	const blockSize = 4096
	fb, ids := newMmapFixture(t, blockSize, 300)
	old := viewOf(t, fb, ids[0])
	var last PageID
	for i := 0; i < 9*len(ids); i++ {
		last = fb.Alloc()
		fb.Write(last, bytes.Repeat([]byte{0x42}, blockSize))
	}
	if v := viewOf(t, fb, last); v[0] != 0x42 || v[blockSize-1] != 0x42 {
		t.Errorf("view of an appended page before Sync = %#x", v[0])
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	if old[0] != 1 || old[blockSize-1] != 1 {
		t.Errorf("view taken before the file grew reads %#x after Sync, want 1", old[0])
	}
	if v := viewOf(t, fb, ids[0]); &v[0] != &old[0] {
		t.Error("page 0 moved to another mapping")
	}
	fb.Write(ids[0], bytes.Repeat([]byte{0x17}, blockSize))
	if old[0] != 0x17 {
		t.Errorf("old view does not show a later write: %#x", old[0])
	}
}

func TestMmapChecksumVerifiedOnce(t *testing.T) {
	needMapping(t)
	blockSize := 128
	path := tempIndex(t)
	fb, err := CreateFile(path, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	id := fb.Alloc()
	fb.Write(id, bytes.Repeat([]byte{6}, blockSize))
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	corruptPageByte(t, path, blockSize, id)
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Abandon()
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrChecksum) {
				t.Fatalf("view of corrupt page: panic %v, want ErrChecksum", r)
			}
		}()
		viewOf(t, re, id)
		t.Fatal("view of corrupt page did not panic")
	}()
	// A write is new content: it re-arms the check, and good bytes pass.
	re.Write(id, bytes.Repeat([]byte{7}, blockSize))
	if v := viewOf(t, re, id); v[0] != 7 {
		t.Errorf("view after rewrite sees %d, want 7", v[0])
	}
}

// corruptPageByte flips one data byte of page id in a closed index file.
func corruptPageByte(t *testing.T, path string, blockSize int, id PageID) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	slot := int64(blockSize + pageTrailerSize)
	off := int64(blockSize) + int64(id)*slot + 10
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
