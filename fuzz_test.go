package prtree

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"prtree/internal/storage"
)

// openSentinels are the errors an index file that fails to open wraps.
var openSentinels = []error{
	ErrBadMagic, ErrBadVersion, ErrBlockSizeMismatch, ErrTruncated, ErrCorrupt, ErrWALCorrupt,
}

// FuzzOpenFile throws arbitrary page-file bytes and log bytes at
// storage.OpenFile. It returns a backend, which closes, or an error
// wrapping one of openSentinels; it never panics, and it allocates in
// proportion to its input whatever sizes and counts the bytes declare.
// The seeds are real files: a fresh CreateFile, a bulk-loaded index, and a
// dynamic index that died with mutations logged and not yet checkpointed.
func FuzzOpenFile(f *testing.F) {
	dir := f.TempDir()
	read := func(path string) {
		page, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		wal, err := os.ReadFile(path + ".wal")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(page, wal)
	}
	opts := &Options{BlockSize: 292}
	items := crashItems(rand.New(rand.NewSource(6)), 40, 0)

	fresh := filepath.Join(dir, "fresh.pr")
	fb, err := storage.CreateFile(fresh, 292)
	if err != nil {
		f.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		f.Fatal(err)
	}
	read(fresh)

	loaded := filepath.Join(dir, "loaded.pr")
	tr, err := Create(loaded, opts)
	if err != nil {
		f.Fatal(err)
	}
	if err := tr.BulkLoad(PR, items); err != nil {
		f.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		f.Fatal(err)
	}
	read(loaded)

	crashed := filepath.Join(dir, "crashed.prd")
	d, err := CreateDynamic(crashed, opts)
	if err != nil {
		f.Fatal(err)
	}
	for _, it := range items[:10] {
		if err := d.InsertE(it); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := d.DeleteE(items[2]); err != nil {
		f.Fatal(err)
	}
	d.fb.Abandon()
	read(crashed)

	f.Fuzz(func(t *testing.T, page, wal []byte) {
		path := filepath.Join(t.TempDir(), "f.pr")
		if err := os.WriteFile(path, page, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".wal", wal, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fb, err := storage.OpenFile(path, 0)
		runtime.ReadMemStats(&after)
		if n, in := after.TotalAlloc-before.TotalAlloc, uint64(len(page)+len(wal)); n > 1<<16+16*in {
			t.Fatalf("%d bytes allocated to open %d bytes of page file and log", n, in)
		}
		if err != nil {
			for _, s := range openSentinels {
				if errors.Is(err, s) {
					return
				}
			}
			t.Fatalf("open failed without a sentinel: %v", err)
		}
		if err := fb.Close(); err != nil {
			t.Fatalf("close after a clean open: %v", err)
		}
	})
}
