//go:build linux

package storage

import (
	"os"
	"sync"
	"sync/atomic"
	"syscall"
)

// pageMap is a page file's mapping of itself: read-only and shared, so the
// file's own pwrites show through it, and built of segments that are only
// ever added. Nothing is unmapped before the handle closes — not by Sync,
// not when the file grows — so a view lent to a cache, a pin set or a
// running traversal cannot dangle while the handle lives.
//
// Each segment reserves address space past the end of the file, at least
// as much as the file holds when the segment is made, so the pages a
// growing file appends land inside the last segment and a file needs one
// segment per doubling, not one per append. Bytes past the end of the file
// are never touched: a page is viewed only when its slot ends within
// FileBackend.extent. What is left to fault is a file cut short by someone
// else, which raises SIGBUS on the next touch of a lost page; traversals
// run with debug.SetPanicOnFault so that this is a panic on their goroutine,
// like every other runtime failure of a validated file.
type pageMap struct {
	segs atomic.Pointer[[]mapSegment] // immutable once published; growMu orders writers

	growMu sync.Mutex
	stuck  bool // an mmap failed: stop growing, later pages take the pread path
}

// mapSegment maps the slots of pages [first, end).
type mapSegment struct {
	first, end int
	off        int64           // file offset of data[0], a multiple of the OS page size
	data       []byte          // len reaches past the file's end at mapping time
	verified   []atomic.Uint32 // one bit per page: trailer checked since its last write
}

// minMapSegment is the smallest reservation: small files get by with one
// segment however they grow.
const minMapSegment = 1 << 20

// segment returns the segment that maps page id, or nil.
func (pm *pageMap) segment(id PageID) *mapSegment {
	segs := pm.segs.Load()
	if segs == nil {
		return nil
	}
	for i := len(*segs) - 1; i >= 0; i-- {
		if seg := &(*segs)[i]; int(id) >= seg.first {
			if int(id) < seg.end {
				return seg
			}
			return nil
		}
	}
	return nil
}

// growMap maps a new segment from the first unmapped page to wherever twice
// the file's current extent reaches, and returns the segment of page id
// (which the caller found inside the extent, so the new segment holds it).
func (fb *FileBackend) growMap(id PageID) *mapSegment {
	pm := &fb.pm
	pm.growMu.Lock()
	defer pm.growMu.Unlock()
	if seg := pm.segment(id); seg != nil || pm.stuck {
		return seg
	}
	var segs []mapSegment
	if old := pm.segs.Load(); old != nil {
		segs = *old
	}
	first := 0
	if len(segs) > 0 {
		first = segs[len(segs)-1].end
	}
	osPage := int64(os.Getpagesize())
	firstOff := fb.offset(PageID(first))
	off := firstOff &^ (osPage - 1)
	size := max(2*fb.extent.Load()-off, minMapSegment)
	size = (size + osPage - 1) &^ (osPage - 1)
	var data []byte
	var err error
	if int64(int(size)) == size {
		data, err = syscall.Mmap(int(fb.f.Fd()), off, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	}
	if data == nil || err != nil {
		// No address space, or a file system that cannot map: the pread
		// path serves every page from here on.
		pm.stuck = true
		return nil
	}
	end := first + int((off+size-firstOff)/int64(fb.slotSize))
	grown := append(segs[:len(segs):len(segs)], mapSegment{
		first: first, end: end, off: off, data: data,
		verified: make([]atomic.Uint32, (end-first+31)/32),
	})
	pm.segs.Store(&grown)
	return &grown[len(grown)-1]
}

// unverify drops page id's verified bit: its slot was just rewritten.
func (pm *pageMap) unverify(id PageID) {
	if seg := pm.segment(id); seg != nil {
		i := int(id) - seg.first
		seg.verified[i/32].And(^(uint32(1) << (i % 32)))
	}
}

// unmap releases every segment. The caller holds the backend exclusively;
// views handed out before must not be used again.
func (pm *pageMap) unmap() {
	if segs := pm.segs.Swap(nil); segs != nil {
		for _, seg := range *segs {
			_ = syscall.Munmap(seg.data) // nothing to do about a failed unmap
		}
	}
	pm.stuck = true
}

// view is ReadNoCopy's zero-copy path: page id's bytes in the mapping,
// counted as one read, or nil, uncounted, where the page has no view. A
// page has none before its slot has been written (there are no bytes to
// map), nor once a map has failed; Read serves it.
//
// The first view of a page after each write of it verifies the CRC32C
// trailer against the mapped bytes, and a mismatch panics with an error
// wrapping ErrChecksum, as Read does on every call.
func (fb *FileBackend) view(id PageID) []byte {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	fb.checkIDLocked(id)
	off := fb.offset(id)
	if off+int64(fb.slotSize) > fb.extent.Load() {
		return nil
	}
	seg := fb.pm.segment(id)
	if seg == nil {
		if seg = fb.growMap(id); seg == nil {
			return nil
		}
	}
	slot := seg.data[off-seg.off:][:fb.slotSize]
	data := slot[:fb.blockSize:fb.blockSize]
	i := int(id) - seg.first
	word, bit := &seg.verified[i/32], uint32(1)<<(i%32)
	if word.Load()&bit == 0 {
		if err := checkTrailer(id, data, slot[fb.blockSize:], fb.blockSize); err != nil {
			panic(err)
		}
		word.Or(bit)
	}
	fb.reads.Add(1)
	return data
}
