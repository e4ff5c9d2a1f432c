package storage

import (
	"bytes"
	"testing"
)

// newPagerDisk allocates n pages stamped with a recognizable first byte.
func newPagerDisk(t *testing.T, n int) *Disk {
	t.Helper()
	d := NewDisk(32)
	for i := 0; i < n; i++ {
		id := d.Alloc()
		d.Write(id, []byte{byte(i + 1)})
	}
	return d
}

func TestPagerHitMissAccounting(t *testing.T) {
	d := newPagerDisk(t, 3)
	p := NewPager(d, -1)
	d.ResetStats()

	p.Read(0)
	p.Read(0)
	p.Read(1)
	p.Read(0)
	hits, misses := p.HitRate()
	if hits != 2 || misses != 2 {
		t.Errorf("hits=%d misses=%d, want 2/2", hits, misses)
	}
	if got := d.Stats().Reads; got != 2 {
		t.Errorf("disk reads = %d, want 2 (only misses touch the disk)", got)
	}
}

func TestPagerEvictionOrderLRU(t *testing.T) {
	d := newPagerDisk(t, 4)
	p := NewPager(d, 2)

	p.Read(0)
	p.Read(1)
	p.Read(0) // 0 is now most recent: LRU order is [0, 1]
	p.Read(2) // evicts 1, not 0
	d.ResetStats()
	p.Read(0)
	p.Read(2)
	if got := d.Stats().Reads; got != 0 {
		t.Errorf("0 and 2 should be resident, saw %d disk reads", got)
	}
	p.Read(1)
	if got := d.Stats().Reads; got != 1 {
		t.Errorf("1 should have been evicted, saw %d disk reads", got)
	}
	if got := p.CachedPages(); got != 2 {
		t.Errorf("CachedPages = %d, want capacity 2", got)
	}
}

func TestPagerCapacityZeroNeverCaches(t *testing.T) {
	d := newPagerDisk(t, 1)
	p := NewPager(d, 0)
	d.ResetStats()
	p.Read(0)
	p.Read(0)
	if got := d.Stats().Reads; got != 2 {
		t.Errorf("capacity-0 pager made %d disk reads, want 2", got)
	}
	if got := p.CachedPages(); got != 0 {
		t.Errorf("capacity-0 pager holds %d pages", got)
	}
}

func TestPagerPinSurvivesEvictionAndWrite(t *testing.T) {
	d := newPagerDisk(t, 4)
	p := NewPager(d, 1)
	p.Pin(0)
	p.Read(1)
	p.Read(2) // evicts 1; 0 stays pinned
	d.ResetStats()
	if got := p.Read(0); got[0] != 1 {
		t.Fatalf("pinned page content = %d", got[0])
	}
	if got := d.Stats().Reads; got != 0 {
		t.Errorf("pinned read touched the disk %d times", got)
	}

	// Write keeps the page pinned: it takes the new bytes again, one
	// counted read, and later reads of the pin touch the disk no more.
	p.Write(0, []byte{9, 8})
	if got := d.Stats().Reads; got != 1 {
		t.Errorf("writing a pinned page read it %d times, want 1", got)
	}
	got := p.Read(0)
	if got[0] != 9 || got[1] != 8 {
		t.Errorf("pinned page not refreshed: % x", got[:2])
	}
	if !bytes.Equal(got[2:], make([]byte, len(got)-2)) {
		t.Errorf("pinned page tail not zero: % x", got[2:])
	}
	// The pinned bytes must match the disk exactly.
	if !bytes.Equal(got, d.PeekNoCopy(0)) {
		t.Error("pinned page diverged from disk after Write")
	}
	if got := d.Stats().Reads; got != 1 {
		t.Errorf("reading the rewritten pin touched the disk: %d reads, want 1", got)
	}

	p.Unpin(0)
	d.ResetStats()
	p.Read(0)
	if got := d.Stats().Reads; got != 1 {
		t.Errorf("unpinned page should reload from disk, saw %d reads", got)
	}
}

// TestPagerWriteDropsCachedPage: a write through the pager drops the
// cached entry, so the next read returns the new bytes for one counted
// read — on a Disk, whose page the cache shares, and on a page file, whose
// view or copy it holds.
func TestPagerWriteDropsCachedPage(t *testing.T) {
	fb, err := CreateFile(tempIndex(t), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	fb.Write(fb.Alloc(), []byte{1})
	for name, dev := range map[string]Backend{"disk": newPagerDisk(t, 2), "file": fb} {
		p := NewPager(dev, -1)
		p.Read(0)
		p.Write(0, []byte{7})
		dev.ResetStats()
		if got := p.Read(0); got[0] != 7 {
			t.Errorf("%s: page reads %d after Write, want 7", name, got[0])
		}
		if got := p.Read(0); got[0] != 7 {
			t.Errorf("%s: page reads %d from the cache, want 7", name, got[0])
		}
		if got := dev.Stats().Reads; got != 1 {
			t.Errorf("%s: the rewritten page cost %d reads, want 1", name, got)
		}
	}
}

// TestPagerCachesDiskPages: an unbounded pager over a Disk holds the Disk's
// own page bytes, not a second copy of them.
func TestPagerCachesDiskPages(t *testing.T) {
	d := newPagerDisk(t, 3)
	p := NewPager(d, -1)
	for id := PageID(0); id < 3; id++ {
		p.Read(id)
		if got := p.Read(id); &got[0] != &d.PeekNoCopy(id)[0] {
			t.Errorf("page %d: the cache holds a copy, not the Disk's page", id)
		}
	}
	p.Pin(0)
	if got := p.Read(0); &got[0] != &d.PeekNoCopy(0)[0] {
		t.Error("page 0: the pin holds a copy, not the Disk's page")
	}
}
