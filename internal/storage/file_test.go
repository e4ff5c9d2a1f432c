package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func tempIndex(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "pages.pr")
}

// TestFileBackendRoundTrip covers the full lifecycle: create, write pages
// and metadata, free a page, close, reopen, and find everything intact —
// including the freelist, which must hand back the freed page first.
func TestFileBackendRoundTrip(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	if fb.BlockSize() != 512 {
		t.Fatalf("block size %d, want 512", fb.BlockSize())
	}
	var ids []PageID
	for i := 0; i < 5; i++ {
		id := fb.Alloc()
		data := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
		fb.Write(id, data)
		ids = append(ids, id)
	}
	fb.Free(ids[2])
	fb.SetMeta([]byte("hello superblock"))
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NumPages(); got != 5 {
		t.Errorf("NumPages = %d, want 5", got)
	}
	if got := re.PagesInUse(); got != 4 {
		t.Errorf("PagesInUse = %d, want 4", got)
	}
	if got := string(re.Meta()); got != "hello superblock" {
		t.Errorf("meta = %q", got)
	}
	for i, id := range ids {
		if i == 2 {
			continue
		}
		buf := make([]byte, 512)
		re.Read(id, buf)
		want := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
		if !bytes.Equal(buf[:len(want)], want) {
			t.Errorf("page %d contents differ", id)
		}
		for _, b := range buf[len(want):] {
			if b != 0 {
				t.Errorf("page %d tail not zero", id)
				break
			}
		}
	}
	// The freed page must be recycled (and come back zeroed).
	if id := re.Alloc(); id != ids[2] {
		t.Errorf("Alloc = %d, want recycled %d", id, ids[2])
	} else if !bytes.Equal(re.ReadNoCopy(id), make([]byte, 512)) {
		t.Errorf("recycled page %d not zeroed", id)
	}
}

// TestFileBackendOpenExpectedBlockSize covers the mismatch error: a file
// written with one block size must refuse to open under another, with a
// wrapped inspectable error.
func TestFileBackendOpenExpectedBlockSize(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, 4096); !errors.Is(err, ErrBlockSizeMismatch) {
		t.Fatalf("Open with wrong block size: %v, want ErrBlockSizeMismatch", err)
	}
	re, err := OpenFile(path, 1024)
	if err != nil {
		t.Fatalf("Open with matching block size: %v", err)
	}
	re.Close()
}

// corruptibleFile writes a small valid page file and returns its bytes.
func corruptibleFile(t *testing.T) (string, []byte) {
	t.Helper()
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		fb.Write(fb.Alloc(), bytes.Repeat([]byte{0xAB}, 256))
	}
	fb.Free(PageID(1))
	fb.SetMeta([]byte("meta"))
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// TestFileBackendCorruption drives Open across every failure path the
// format can detect. Each case must return a wrapped, inspectable error —
// never panic.
func TestFileBackendCorruption(t *testing.T) {
	_, good := corruptibleFile(t)

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error // nil means "any error"
	}{
		{
			name:    "short header read",
			mutate:  func(b []byte) []byte { return b[:10] },
			wantErr: io.ErrUnexpectedEOF,
		},
		{
			name:    "empty file",
			mutate:  func(b []byte) []byte { return nil },
			wantErr: io.ErrUnexpectedEOF,
		},
		{
			name: "bad magic",
			mutate: func(b []byte) []byte {
				b[0] = 'X'
				return b
			},
			wantErr: ErrBadMagic,
		},
		{
			name: "bad version",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint16(b[6:8], 99)
				return b
			},
			wantErr: ErrBadVersion,
		},
		{
			name: "truncated page data",
			mutate: func(b []byte) []byte {
				return b[:len(b)-300] // cuts into the last page
			},
			wantErr: ErrTruncated,
		},
		{
			name: "truncated freelist trailer",
			mutate: func(b []byte) []byte {
				return b[:len(b)-2] // cuts into the 4-byte trailer
			},
			wantErr: ErrTruncated,
		},
		{
			name: "implausible block size",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[8:12], 3)
				return b
			},
		},
		{
			name: "freelist entry out of range",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[len(b)-4:], 77)
				return b
			},
		},
		{
			name: "freelist entry duplicated",
			mutate: func(b []byte) []byte {
				// Grow the freelist to two entries, both naming the same
				// page — Alloc would hand the page out twice.
				binary.LittleEndian.PutUint32(b[16:20], 2)
				return append(b, b[len(b)-4:]...)
			},
		},
		{
			name: "meta overflows header block",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[20:24], 4096)
				return b
			},
		},
		{
			name: "freelist count exceeds pages",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[16:20], 50)
				return b
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "corrupt.pr")
			mutated := tc.mutate(append([]byte(nil), good...))
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenFile(path, 0)
			if err == nil {
				t.Fatal("Open succeeded on corrupt file")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("Open error = %v, want errors.Is(..., %v)", err, tc.wantErr)
			}
		})
	}
}

// TestFileBackendAllocUnwrittenPage: a page allocated but never written
// (lazy file extension) must still be covered by Sync's geometry and read
// back as zeros after reopen.
func TestFileBackendAllocUnwrittenPage(t *testing.T) {
	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := fb.Alloc()
	b := fb.Alloc() // written
	fb.Write(b, []byte("written"))
	c := fb.Alloc() // trailing page, never written
	if !bytes.Equal(fb.ReadNoCopy(a), make([]byte, 256)) {
		t.Error("unwritten page a not zero before sync")
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(256 + 3*(256+pageTrailerSize)); st.Size() != want {
		t.Fatalf("file size %d after close, want %d (header + 3 checksummed slots)", st.Size(), want)
	}
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, id := range []PageID{a, c} {
		if !bytes.Equal(re.ReadNoCopy(id), make([]byte, 256)) {
			t.Errorf("unwritten page %d not zero after reopen", id)
		}
	}
}

// TestFileBackendAbandonLeavesBytes: Abandon must close without syncing,
// leaving the on-disk bytes exactly as they were — the contract failed
// Opens rely on.
func TestFileBackendAbandonLeavesBytes(t *testing.T) {
	path, before := corruptibleFile(t)
	fb, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	fb.Write(PageID(0), bytes.Repeat([]byte{0xCD}, 256))
	fb.SetMeta([]byte("must not land on disk"))
	fb.Abandon()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The direct page write hits the file (pwrite), but Abandon must not
	// rewrite the header/meta, the freelist trailer or the recorded
	// geometry — so everything outside page 0's slot is byte-identical.
	slot := 256 + pageTrailerSize
	if !bytes.Equal(after[:256], before[:256]) {
		t.Error("Abandon rewrote the header block")
	}
	if !bytes.Equal(after[256+slot:], before[256+slot:]) {
		t.Error("Abandon changed bytes beyond the written page's slot")
	}
	if _, err := OpenFile(path, 0); err != nil {
		t.Fatalf("file no longer opens after Abandon: %v", err)
	}
}

// TestFileBackendMetaTooLarge: a metadata blob that cannot fit the header
// block must fail Sync with an error, not corrupt the file.
func TestFileBackendMetaTooLarge(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	fb.SetMeta(make([]byte, 1024))
	if err := fb.Sync(); err == nil {
		t.Fatal("Sync accepted an oversized metadata blob")
	}
}

// TestFileBackendCounting: the page file counts exactly the caller-issued
// block transfers — one read per Read and ReadNoCopy, one write per Write —
// and nothing else: not Alloc, Free or PeekNoCopy, nor the log records and
// header of a commit and a checkpoint. A Disk reports the same totals for
// the same sequence.
func TestFileBackendCounting(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	for name, dev := range map[string]Backend{"file": fb, "disk": NewDisk(256)} {
		var want Stats
		check := func(op string) {
			t.Helper()
			if got := dev.Stats(); got != want {
				t.Errorf("%s: stats after %s = %v, want %v", name, op, got, want)
			}
		}
		dev.Begin()
		id := dev.Alloc()
		dev.Free(dev.Alloc())
		check("Alloc and Free")
		dev.Write(id, []byte("x"))
		want.Writes++
		check("Write")
		if err := dev.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := dev.Sync(); err != nil {
			t.Fatal(err)
		}
		check("Commit and Sync")
		dev.Read(id, make([]byte, 256))
		want.Reads++
		check("Read")
		dev.ReadNoCopy(id)
		want.Reads++
		check("ReadNoCopy")
		dev.PeekNoCopy(id)
		check("PeekNoCopy")
		dev.ResetStats()
		want = Stats{}
		check("ResetStats")
	}
}

// TestCreateFileSyncsDirectory: the names of a new page file and its log
// are durable only once their directory is synced, so CreateFile syncs it,
// once, after both exist. Opening an existing file creates no name.
func TestCreateFileSyncsDirectory(t *testing.T) {
	path := tempIndex(t)
	before := DirSyncs()
	fb, err := CreateFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	if got := DirSyncs() - before; got != 1 {
		t.Errorf("CreateFile synced its directory %d times, want 1", got)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	before = DirSyncs()
	if fb, err = OpenFile(path, 0); err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if got := DirSyncs() - before; got != 0 {
		t.Errorf("OpenFile synced a directory %d times", got)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("SyncDir of a missing directory succeeded")
	}
}
