package storage_test

import (
	"sync"
	"testing"

	"prtree/internal/extmem"
	"prtree/internal/geom"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// The ItemFile tests stay beside the record encoding whose blocks they
// write; the file itself is extmem's.

func TestItemFileRoundTrip(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	items := zoo.Uniform(1000, 0.01, 1)
	f := extmem.NewItemFileFrom(d, items)
	if f.Len() != 1000 {
		t.Fatalf("len = %d", f.Len())
	}
	got := f.ReadAll()
	if len(got) != len(items) {
		t.Fatalf("read %d items", len(got))
	}
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("item %d mismatch: %+v vs %+v", i, got[i], items[i])
		}
	}
}

func TestItemFileBlockCount(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	f := extmem.NewItemFileFrom(d, zoo.Uniform(per*3+1, 0.01, 2))
	if f.Blocks() != 4 {
		t.Errorf("blocks = %d, want 4", f.Blocks())
	}
}

func TestItemFileIOAccounting(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	n := per * 5
	d.ResetStats()
	f := extmem.NewItemFileFrom(d, zoo.Uniform(n, 0.01, 3))
	if w := d.Stats().Writes; w != 5 {
		t.Errorf("writing %d items should cost 5 block writes, got %d", n, w)
	}
	d.ResetStats()
	_ = f.ReadAll()
	if r := d.Stats().Reads; r != 5 {
		t.Errorf("scanning should cost 5 block reads, got %d", r)
	}
}

func TestItemFileSealSemantics(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	f := extmem.NewItemFile(d)
	f.Append(geom.Item{Rect: geom.NewRect(0, 0, 1, 1), ID: 1})
	f.Seal()
	f.Seal() // idempotent
	defer func() {
		if recover() == nil {
			t.Error("append after seal should panic")
		}
	}()
	f.Append(geom.Item{})
}

func TestItemFileReaderUnsealedPanics(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	f := extmem.NewItemFile(d)
	defer func() {
		if recover() == nil {
			t.Error("Reader on unsealed file should panic")
		}
	}()
	_ = f.Reader()
}

func TestItemReaderSeek(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	items := zoo.Uniform(500, 0.01, 4)
	f := extmem.NewItemFileFrom(d, items)
	r := f.ReaderAt(250)
	it, ok := r.Next()
	if !ok || it != items[250] {
		t.Errorf("seek read = %+v", it)
	}
	if it, ok := r.Next(); !ok || it != items[251] {
		t.Errorf("read after the seek = %+v", it)
	}
	r.Seek(0)
	it, _ = r.Next()
	if it != items[0] {
		t.Error("seek back to 0 failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range seek should panic")
		}
	}()
	r.Seek(501)
}

func TestItemFileFree(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	f := extmem.NewItemFileFrom(d, zoo.Uniform(300, 0.01, 5))
	used := d.PagesInUse()
	f.Free()
	if d.PagesInUse() != used-3 {
		t.Errorf("free did not release pages: %d in use", d.PagesInUse())
	}
	if f.Len() != 0 {
		t.Errorf("freed file len = %d", f.Len())
	}
}

func TestItemFileEmpty(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	f := extmem.NewItemFileFrom(d, nil)
	if f.Len() != 0 || f.Blocks() != 0 {
		t.Errorf("empty file: len=%d blocks=%d", f.Len(), f.Blocks())
	}
	if got := f.ReadAll(); len(got) != 0 {
		t.Errorf("empty read = %v", got)
	}
}

func TestItemFilePartialBlock(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	items := zoo.Uniform(7, 0.01, 6)
	f := extmem.NewItemFileFrom(d, items)
	got := f.ReadAll()
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("partial-block item %d mismatch", i)
		}
	}
}

func TestAppendRawMatchesAppend(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	a, b := extmem.NewItemFile(d), extmem.NewItemFile(d)
	var rec [storage.ItemSize]byte
	for i := 0; i < 300; i++ {
		it := geom.Item{Rect: geom.NewRect(float64(i), 0, float64(i)+1, 2), ID: uint32(i)}
		a.Append(it)
		storage.EncodeItem(rec[:], it)
		b.AppendRaw(rec[:])
	}
	a.Seal()
	b.Seal()
	ga, gb := a.ReadAll(), b.ReadAll()
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("record %d differs: %+v != %+v", i, ga[i], gb[i])
		}
	}
}

func TestRawBlockAndAppendRawBlockCopy(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	n := per*2 + 5 // two full blocks plus a partial tail
	src := extmem.NewItemFile(d)
	for i := 0; i < n; i++ {
		src.Append(geom.Item{Rect: geom.NewRect(0, 0, 1, 1), ID: uint32(i)})
	}
	src.Seal()
	d.ResetStats()
	dst := extmem.NewItemFile(d)
	for b := 0; b < src.Blocks(); b++ {
		data, count := src.RawBlock(b)
		dst.AppendRawBlock(data, count)
	}
	dst.Seal()
	// Whole-block copy must cost exactly the same I/O as a record copy:
	// one read and one write per block.
	st := d.Stats()
	if st.Reads != uint64(src.Blocks()) || st.Writes != uint64(src.Blocks()) {
		t.Errorf("copy cost %v, want %d reads and writes", st, src.Blocks())
	}
	got := dst.ReadAll()
	if len(got) != n {
		t.Fatalf("copied %d of %d records", len(got), n)
	}
	for i, it := range got {
		if it.ID != uint32(i) {
			t.Fatalf("record %d: id %d", i, it.ID)
		}
	}
}

func TestAppendRawBlockIntoPartialBuffer(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	src := extmem.NewItemFile(d)
	for i := 0; i < per; i++ {
		src.Append(geom.Item{Rect: geom.NewRect(0, 0, 1, 1), ID: uint32(i)})
	}
	src.Seal()
	dst := extmem.NewItemFile(d)
	dst.Append(geom.Item{Rect: geom.NewRect(0, 0, 1, 1), ID: 9999}) // misalign
	data, count := src.RawBlock(0)
	dst.AppendRawBlock(data, count)
	dst.Seal()
	got := dst.ReadAll()
	if len(got) != per+1 || got[0].ID != 9999 || got[1].ID != 0 || got[per].ID != uint32(per-1) {
		t.Fatalf("misaligned raw block append corrupted the file (len %d)", len(got))
	}
}

func TestNextRawMatchesNext(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	f := extmem.NewItemFile(d)
	n := per + 13
	for i := 0; i < n; i++ {
		f.Append(geom.Item{Rect: geom.NewRect(float64(i), 1, float64(i)+2, 3), ID: uint32(i)})
	}
	f.Seal()
	ra, rb := f.Reader(), f.Reader()
	for {
		it, ok1 := ra.Next()
		rec, ok2 := rb.NextRaw()
		if ok1 != ok2 {
			t.Fatal("readers disagree on EOF")
		}
		if !ok1 {
			break
		}
		if storage.DecodeItem(rec) != it {
			t.Fatalf("raw record decodes to %+v, want %+v", storage.DecodeItem(rec), it)
		}
	}
}

// TestItemFilesConcurrentAppend writes many files concurrently on one disk
// — each file has a single owner, the disk is shared — and verifies every
// file round-trips and the freelist reuses pages across Free/Alloc.
func TestItemFilesConcurrentAppend(t *testing.T) {
	const files = 6
	d := storage.NewDisk(storage.DefaultBlockSize)
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	n := per*3 + 7
	var wg sync.WaitGroup
	wg.Add(files)
	for fi := 0; fi < files; fi++ {
		go func(fi int) {
			defer wg.Done()
			f := extmem.NewItemFile(d)
			for i := 0; i < n; i++ {
				f.Append(geom.Item{Rect: geom.NewRect(float64(fi), float64(i), float64(fi)+1, float64(i)+1), ID: uint32(fi*1000 + i)})
			}
			f.Seal()
			got := f.ReadAll()
			for i, it := range got {
				if it.ID != uint32(fi*1000+i) {
					t.Errorf("file %d record %d: id %d", fi, i, it.ID)
					return
				}
			}
			f.Free()
		}(fi)
	}
	wg.Wait()
	if d.PagesInUse() != 0 {
		t.Errorf("%d pages leaked", d.PagesInUse())
	}
}
