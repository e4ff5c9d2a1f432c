package logmethod

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"prtree/internal/bulk"
	"prtree/internal/geom"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// savedBlob returns the blob of a state saved on a fresh store of 512-byte
// blocks: n buffered items (base 64, so none carries) and no level. At
// this block size the blob holds 12 records and a state page 14, so the
// chain, if any, starts at page 0.
func savedBlob(n int) (*storage.Disk, []byte) {
	disk := storage.NewDisk(512)
	tr := New(storage.NewPager(disk, -1), bulk.Options{}, 64)
	for _, it := range zoo.Uniform(n, 0.02, 5) {
		tr.Insert(it)
	}
	return disk, tr.SaveState(disk)
}

// TestSaveStateFillsHeaderFirst: a state's records go to the blob until
// the header block is full, and only the rest to state pages; every shape
// reopens to the same items.
func TestSaveStateFillsHeaderFirst(t *testing.T) {
	room := (storage.MetaCapacity(512) - dynHeaderSize) / storage.ItemSize
	perPage := (512 - chainHeaderSize) / storage.ItemSize
	for _, n := range []int{0, 1, room, room + 1, room + perPage, room + perPage + 1} {
		disk, meta := savedBlob(n)
		inline := min(n, room)
		pages := (n - inline + perPage - 1) / perPage
		if len(meta) != dynHeaderSize+inline*storage.ItemSize || disk.PagesInUse() != pages {
			t.Errorf("%d records: %d-byte blob and %d state pages, want %d inline and %d pages",
				n, len(meta), disk.PagesInUse(), inline, pages)
		}
		tr, err := OpenState(storage.NewPager(disk, -1), bulk.Options{}, meta)
		if err != nil {
			t.Fatalf("%d records: %v", n, err)
		}
		if got, want := tr.Items(), zoo.Uniform(n, 0.02, 5); !slices.Equal(zoo.Sorted(got), want) {
			t.Errorf("%d records reopened to %d items", n, len(got))
		}
		if again := tr.SaveState(disk); !bytes.Equal(again, meta) || disk.PagesInUse() != pages {
			t.Errorf("%d records: a save with no mutation since wrote a new blob or chain", n)
		}
	}

	// Tombstones across the blob's end: they follow the buffer in id
	// order, so a save that names the chain again puts the same ones in
	// the blob before it.
	disk := storage.NewDisk(512)
	tr := New(storage.NewPager(disk, -1), bulk.Options{}, 16)
	items := zoo.Uniform(40, 0.02, 7) // a level of 32, a buffer of 8
	for _, it := range items {
		tr.Insert(it)
	}
	for _, it := range items[:8] {
		tr.Delete(it)
	}
	meta := tr.SaveState(disk)
	for range 4 {
		if again := tr.SaveState(disk); !bytes.Equal(again, meta) {
			t.Fatal("a save that named the chain again wrote other records into the blob")
		}
	}
	re, err := OpenState(storage.NewPager(disk, -1), bulk.Options{}, meta)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(zoo.Sorted(re.Items()), zoo.Sorted(tr.Items())) {
		t.Fatalf("tombstones across the blob's end reopened to %d items, want %d", re.Len(), tr.Len())
	}
}

// TestOpenStateRejectsHostileCounts: the blob has no checksum, so every
// count in it is untrusted. A count no blob and store could hold is an
// error before anything is sized by it — a buffer of 0x7FFFFFF0 records
// used to be allocated up front and killed the process — and so are counts
// that contradict each other.
func TestOpenStateRejectsHostileCounts(t *testing.T) {
	// A level, two tombstones and n-32 buffered items on a store of
	// 512-byte blocks: all ten records in the blob at n = 40, a state page
	// beside it at n = 52.
	fixture := func(n int) (*storage.Disk, *Tree, []byte) {
		disk := storage.NewDisk(512)
		tr := New(storage.NewPager(disk, -1), bulk.Options{}, 16)
		items := zoo.Uniform(n, 0.02, 9)
		for _, it := range items {
			tr.Insert(it)
		}
		tr.Delete(items[0])
		tr.Delete(items[1])
		meta := tr.SaveState(disk)
		if _, err := OpenState(storage.NewPager(disk, -1), bulk.Options{}, meta); err != nil {
			t.Fatalf("the fixture does not open: %v", err)
		}
		return disk, tr, meta
	}
	type patch struct {
		name string
		word int // of the fixed part; -1: the last inline record becomes a copy of the one before
		v    uint32
	}
	for _, n := range []int{40, 52} {
		disk, tr, meta := fixture(n)
		s := tr.st.Load()
		if chained := len(tr.chain.pages) > 0; chained != (n == 52) || s.dead.len() != 2 || len(s.levels) != 2 {
			t.Fatalf("fixture of %d: chain pages %d, %d tombstones, %d level slots", n, len(tr.chain.pages), s.dead.len(), len(s.levels))
		}
		patches := []patch{
			{"huge buffer count", 3, 0x7FFFFFF0},
			{"huge tombstone count", 4, 0x7FFFFFF0},
			{"huge level count", 7, 0x7FFFFFF0},
			{"inline count above the records", 5, 1000},
			{"inline count short of the blob", 5, uint32(tr.chain.inline - 1)},
			{"chain head out of range", 6, 1000},
			{"stored beside the buffer and levels", 2, uint32(s.stored + 1)},
			{"live beside stored and tombstones", 1, uint32(s.live - 1)},
			{"zero base", 0, 0},
		}
		if n == 40 { // the tombstones are the blob's last two records
			patches = append(patches, patch{"item tombstoned twice", -1, 0})
		}
		for _, p := range patches {
			bad := append([]byte(nil), meta...)
			if p.word >= 0 {
				binary.LittleEndian.PutUint32(bad[8+4*p.word:], p.v)
			} else {
				copy(bad[len(bad)-storage.ItemSize:], bad[len(bad)-2*storage.ItemSize:])
			}
			if _, err := OpenState(storage.NewPager(disk, -1), bulk.Options{}, bad); err == nil {
				t.Errorf("fixture of %d, %s: opened", n, p.name)
			}
		}
	}
}

// sharedIDBlob returns the blob of a state on a fresh store of 512-byte
// blocks whose two tombstones share an id: an item deleted from a level of
// 100, its id inserted again with another rect, carried into a level of 64
// beside it and deleted there too. Both tombstones are in the blob.
func sharedIDBlob(t testing.TB) (*storage.Disk, *Tree, []byte) {
	disk := storage.NewDisk(512)
	tr := New(storage.NewPager(disk, -1), bulk.Options{}, 4)
	items := zoo.Uniform(164, 0.02, 11)
	for _, it := range items[:100] {
		tr.Insert(it)
	}
	tr.Flush()
	reused := geom.Item{Rect: geom.NewRect(0.5, 0.5, 0.51, 0.51), ID: items[0].ID}
	tr.Delete(items[0])
	tr.Insert(reused)
	for _, it := range items[101:] {
		tr.Insert(it)
	}
	tr.Delete(reused)
	meta := tr.SaveState(disk)
	if sizes, dead := tr.LevelSizes(), tr.st.Load().dead.len(); !slices.Equal(sizes, []int{0, 0, 0, 0, 64, 100}) || dead != 2 || tr.BufferLen() != 0 || len(tr.chain.pages) != 0 {
		t.Fatalf("slots %v, %d tombstones, buffer %d, %d state pages: want the reused id's two items dead in levels 4 and 5, and no state page",
			sizes, dead, tr.BufferLen(), len(tr.chain.pages))
	}
	return disk, tr, meta
}

// TestOpenStateTombstonesShareID: a state whose two tombstones share an id
// opens to the same live items. (The same item tombstoned twice does not:
// TestOpenStateRejectsHostileCounts.)
func TestOpenStateTombstonesShareID(t *testing.T) {
	disk, tr, meta := sharedIDBlob(t)
	re, err := OpenState(storage.NewPager(disk, -1), bulk.Options{}, meta)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := zoo.Sorted(re.Items()), zoo.Sorted(tr.Items()); re.Len() != 162 || !slices.Equal(got, want) {
		t.Fatalf("reopened to %d live items (Len %d), want the 162 saved", len(got), re.Len())
	}
}

// allocated runs fn and returns the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzOpenState throws an arbitrary blob and one arbitrary state page at
// OpenState: it returns an error or a tree whose counts are the blob's,
// never panics, and allocates in proportion to its input whatever counts
// the blob declares.
func FuzzOpenState(f *testing.F) {
	for _, n := range []int{0, 5, 12 + 14} { // no records, inline only, inline and a full page
		disk, meta := savedBlob(n)
		page := []byte{}
		if disk.NumPages() > 0 {
			page = disk.PeekNoCopy(0)
		}
		f.Add(meta, page)
	}
	_, _, shared := sharedIDBlob(f)
	f.Add(shared, []byte{})
	f.Fuzz(func(t *testing.T, meta, page []byte) {
		disk := storage.NewDisk(512)
		disk.Write(disk.Alloc(), page[:min(len(page), 512)])
		pager := storage.NewPager(disk, -1)
		var tr *Tree
		var err error
		if n := allocated(func() { tr, err = OpenState(pager, bulk.Options{}, meta) }); n > 1<<16+16*uint64(len(meta)+512) {
			t.Fatalf("%d bytes allocated for a %d-byte blob and one page", n, len(meta))
		}
		if err == nil && tr.Len() != int(binary.LittleEndian.Uint32(meta[12:])) {
			t.Fatalf("opened to %d live items, the blob says %d", tr.Len(), binary.LittleEndian.Uint32(meta[12:]))
		}
	})
}

// FuzzPendingMutations splits arbitrary bytes into notes (a length byte,
// then the note) and decodes them: an error, or no more mutations than
// notes, never a panic and nothing allocated out of proportion to them.
func FuzzPendingMutations(f *testing.F) {
	note := func(b []byte) []byte { return append([]byte{byte(len(b))}, b...) }
	ins := Mutation{Item: zoo.Uniform(1, 0.02, 3)[0]}.Note()
	del := Mutation{Delete: true, Item: zoo.Uniform(1, 0.02, 4)[0]}.Note()
	f.Add([]byte{})
	f.Add(bytes.Join([][]byte{note(ins), note(del), note(SavedNote()), note(ins)}, nil))
	f.Add(note(ins[:20]))
	f.Add(note([]byte{9}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var notes [][]byte
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			notes, data = append(notes, data[1:1+n]), data[1+n:]
		}
		var out []Mutation
		var err error
		if n := allocated(func() { out, err = PendingMutations(notes) }); n > 1<<16+4*64*uint64(len(notes)) {
			t.Fatalf("%d bytes allocated for %d notes", n, len(notes))
		}
		if err == nil && len(out) > len(notes) {
			t.Fatalf("%d mutations from %d notes", len(out), len(notes))
		}
	})
}
