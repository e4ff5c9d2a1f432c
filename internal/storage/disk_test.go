package storage

import (
	"bytes"
	"testing"
)

func TestDiskAllocWriteRead(t *testing.T) {
	d := NewDisk(64)
	id := d.Alloc()
	data := []byte("hello block")
	d.Write(id, data)
	buf := d.ReadNoCopy(id)
	if n := len(buf); n != 64 {
		t.Errorf("read %d bytes, want 64", n)
	}
	if !bytes.Equal(buf[:len(data)], data) {
		t.Errorf("read back %q", buf[:len(data)])
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats = %v, want 1 read 1 write", st)
	}
}

func TestDiskFreeReuseZeroes(t *testing.T) {
	d := NewDisk(32)
	id := d.Alloc()
	d.Write(id, []byte{1, 2, 3})
	d.Free(id)
	id2 := d.Alloc()
	if id2 != id {
		t.Fatalf("freelist should reuse page %d, got %d", id, id2)
	}
	buf := d.PeekNoCopy(id2)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("reused page not zeroed at byte %d", i)
		}
	}
	if d.NumPages() != 1 {
		t.Errorf("NumPages = %d", d.NumPages())
	}
	if d.PagesInUse() != 1 {
		t.Errorf("PagesInUse = %d", d.PagesInUse())
	}
}

func TestDiskOversizeWritePanics(t *testing.T) {
	d := NewDisk(8)
	id := d.Alloc()
	defer func() {
		if recover() == nil {
			t.Error("oversize write should panic")
		}
	}()
	d.Write(id, make([]byte, 9))
}

func TestDiskBadPagePanics(t *testing.T) {
	d := NewDisk(8)
	defer func() {
		if recover() == nil {
			t.Error("read of unallocated page should panic")
		}
	}()
	d.ReadNoCopy(PageID(5))
}

func TestDiskStatsResetAndSub(t *testing.T) {
	d := NewDisk(16)
	id := d.Alloc()
	d.Write(id, []byte{1})
	before := d.Stats()
	d.ReadNoCopy(id)
	d.ReadNoCopy(id)
	delta := d.Stats().Sub(before)
	if delta.Reads != 2 || delta.Writes != 0 {
		t.Errorf("delta = %v", delta)
	}
	if delta.Total() != 2 {
		t.Errorf("total = %d", delta.Total())
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Errorf("reset failed: %v", d.Stats())
	}
}

func TestReadNoCopyCounts(t *testing.T) {
	d := NewDisk(16)
	id := d.Alloc()
	d.Write(id, []byte{42})
	before := d.Stats().Reads
	b := d.ReadNoCopy(id)
	if b[0] != 42 {
		t.Error("wrong content")
	}
	if d.Stats().Reads != before+1 {
		t.Error("ReadNoCopy must count a read")
	}
	_ = d.PeekNoCopy(id)
	if d.Stats().Reads != before+1 {
		t.Error("PeekNoCopy must not count a read")
	}
}
