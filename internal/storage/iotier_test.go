package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"testing"
)

// The page file's two read paths — Read's verified pread everywhere, and
// on platforms that have it the views ReadStable lends out of the file's
// own mapping — must agree on every page.

// stableViews returns b's zero-copy capability, or skips the test on a
// platform whose page files do not map themselves.
func stableViews(t *testing.T, b Backend) StableReader {
	t.Helper()
	sr, ok := b.(StableReader)
	if !ok {
		t.Skip("page files do not map themselves on this platform")
	}
	return sr
}

// view is ReadStable for a page that must have a view.
func view(t *testing.T, sr StableReader, id PageID) []byte {
	t.Helper()
	data, ok := sr.ReadStable(id)
	if !ok {
		t.Fatalf("page %d has no stable view", id)
	}
	return data
}

// TestCountingStableReadsCountDemandReads: a view the page file lends is
// one demand read, a refused one none (the caller's fallback Read counts),
// so a pager's miss costs one read on the page file as on a Disk.
func TestCountingStableReadsCountDemandReads(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	written, blank := fb.Alloc(), fb.Alloc()
	fb.Write(written, bytes.Repeat([]byte{1}, 128))
	sr := stableViews(t, fb)
	fb.ResetStats()
	view(t, sr, written)
	if st := fb.Stats(); st.Reads != 1 {
		t.Errorf("a view taken counted %d reads, want 1", st.Reads)
	}
	if _, ok := sr.ReadStable(blank); ok {
		t.Fatal("a never-written page has a stable view")
	}
	if st := fb.Stats(); st.Reads != 1 {
		t.Errorf("a refused view counted a read: %d, want 1", st.Reads)
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

	sr, _ := Backend(fb).(StableReader)
	for _, id := range order {
		got := make([]byte, 256)
		fb.Read(id, got)
		if !bytes.Equal(got, want[id]) {
			t.Errorf("Read of page %d diverges from what was written", id)
		}
		if sr == nil {
			continue
		}
		v, ok := sr.ReadStable(id)
		if ok != (id != blank) {
			t.Errorf("page %d: stable view = %v", id, ok)
		}
		if ok && !bytes.Equal(v, got) {
			t.Errorf("stable view of page %d diverges from Read", id)
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

func newMmapFixture(t *testing.T, blockSize, pages int) (*FileBackend, StableReader, []PageID) {
	t.Helper()
	fb, err := CreateFile(tempIndex(t), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	sr := stableViews(t, fb)
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = fb.Alloc()
		fb.Write(ids[i], bytes.Repeat([]byte{byte(i + 1)}, blockSize))
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	return fb, sr, ids
}

func TestMmapReadsMatchFileReads(t *testing.T) {
	fb, sr, ids := newMmapFixture(t, 256, 10)
	for _, id := range ids {
		want := make([]byte, 256)
		fb.Read(id, want)
		if !bytes.Equal(view(t, sr, id), want) {
			t.Errorf("stable view of page %d diverges", id)
		}
	}
}

func TestMmapWriteCoherence(t *testing.T) {
	fb, sr, ids := newMmapFixture(t, 128, 3)
	id := ids[1]
	before := view(t, sr, id)
	fb.Write(id, bytes.Repeat([]byte{0x7e}, 128))
	want := bytes.Repeat([]byte{0x7e}, 128)
	if !bytes.Equal(view(t, sr, id), want) {
		t.Error("stable view is stale after the write")
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
	fb, sr, ids := newMmapFixture(t, blockSize, 300)
	old := view(t, sr, ids[0])
	var last PageID
	for i := 0; i < 9*len(ids); i++ {
		last = fb.Alloc()
		fb.Write(last, bytes.Repeat([]byte{0x42}, blockSize))
	}
	if v := view(t, sr, last); v[0] != 0x42 || v[blockSize-1] != 0x42 {
		t.Errorf("view of an appended page before Sync = %#x", v[0])
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	if old[0] != 1 || old[blockSize-1] != 1 {
		t.Errorf("view taken before the file grew reads %#x after Sync, want 1", old[0])
	}
	if v := view(t, sr, ids[0]); &v[0] != &old[0] {
		t.Error("page 0 moved to another mapping")
	}
	fb.Write(ids[0], bytes.Repeat([]byte{0x17}, blockSize))
	if old[0] != 0x17 {
		t.Errorf("old view does not show a later write: %#x", old[0])
	}
}

func TestMmapChecksumVerifiedOnce(t *testing.T) {
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
	sr := stableViews(t, re)
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrChecksum) {
				t.Fatalf("stable read of corrupt page: panic %v, want ErrChecksum", r)
			}
		}()
		sr.ReadStable(id)
		t.Fatal("stable read of corrupt page did not panic")
	}()
	// A write is new content: it re-arms the check, and good bytes pass.
	re.Write(id, bytes.Repeat([]byte{7}, blockSize))
	if v := view(t, sr, id); v[0] != 7 {
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
