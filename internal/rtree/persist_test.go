package rtree

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// A tree persists as its pages plus its metadata record: a file-backed
// index keeps the record in its superblock and reopens with OpenFromMeta.
// These tests reopen trees that way, over the same pages, behind a cold
// pager.

// reopen reopens tr from its metadata record over the same page store.
func reopen(tr *Tree) (*Tree, error) {
	return OpenFromMeta(storage.NewPager(tr.Pager().Backend(), -1), tr.EncodeMeta())
}

func TestSaveLoadRoundTrip(t *testing.T) {
	items := zoo.Uniform(3000, 0.05, 1)
	tr := buildPacked(t, items, 16)
	got, err := reopen(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.Height() != tr.Height() || got.Nodes() != tr.Nodes() {
		t.Fatalf("metadata mismatch: %v vs %v", got, tr)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, q := range zoo.Windows(25, 2) {
		if err := zoo.Expect(items, zoo.Query{Rect: q}).CheckScan(func(f func(geom.Item) bool) { window(got, q, f) }); err != nil {
			t.Fatalf("window %v: %v", q, err)
		}
	}
}

// TestOpenIgnoresRetiredConfigWords: words 5 and 6 of the metadata record
// held the minimum fill and split heuristic of the update paths earlier
// versions had. They are written as 0 now, and a record of the earlier
// format — 45 and a nonzero split, as every index file of those versions
// holds — still opens to the same tree with the same answers.
func TestOpenIgnoresRetiredConfigWords(t *testing.T) {
	items := zoo.Uniform(3000, 0.05, 5)
	tr := buildPacked(t, items, 0)
	meta := tr.EncodeMeta()
	for _, w := range []int{5, 6} {
		if v := binary.LittleEndian.Uint64(meta[len(treeMagic)+8*w:]); v != 0 {
			t.Fatalf("word %d = %d, want 0", w, v)
		}
	}
	binary.LittleEndian.PutUint64(meta[len(treeMagic)+8*5:], 45)
	binary.LittleEndian.PutUint64(meta[len(treeMagic)+8*6:], 2)
	got, err := OpenFromMeta(storage.NewPager(tr.Pager().Backend(), -1), meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.Height() != tr.Height() || got.Nodes() != tr.Nodes() || got.Config() != tr.Config() {
		t.Fatalf("reopened %v (%+v), want %v (%+v)", got, got.Config(), tr, tr.Config())
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 25; i++ {
		x, y := rng.Float64(), rng.Float64()
		q := geom.NewRect(x, y, x+0.2, y+0.2)
		if a, b := windowItems(got, q), windowItems(tr, q); !slices.Equal(a, b) {
			t.Fatalf("query %v: %d results, want %d (or another order)", q, len(a), len(b))
		}
	}
}

// TestSaveLoadEmptyTree: an empty tree owns no page, records a root-less
// metadata record, reopens as one and answers nothing.
func TestSaveLoadEmptyTree(t *testing.T) {
	tr := newTestTree(t, Config{Fanout: 8})
	if tr.Root() != storage.NilPage || tr.Pager().Backend().NumPages() != 0 {
		t.Fatalf("an empty tree owns root %d and %d pages", tr.Root(), tr.Pager().Backend().NumPages())
	}
	got, err := reopen(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Height() != 0 || got.Nodes() != 0 || got.Root() != storage.NilPage {
		t.Fatalf("empty round trip: %v", got)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if st := window(got, geom.NewRect(0, 0, 1, 1), nil); st != (QueryStats{}) {
		t.Errorf("a query of an empty tree did %+v", st)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	pager := storage.NewPager(storage.NewDisk(storage.DefaultBlockSize), -1)
	if _, err := OpenFromMeta(pager, []byte("not a tree")); err == nil {
		t.Error("garbage should not open")
	}
	if _, err := OpenFromMeta(pager, nil); err == nil {
		t.Error("an empty record should not open")
	}
	bad := make([]byte, MetaSize)
	copy(bad, "PRTREE99")
	if _, err := OpenFromMeta(pager, bad); err == nil {
		t.Error("a record with a foreign magic should not open")
	}
}

// TestLoadRejectsCorruptHeader: hostile metadata records and root pages
// are refused with an error, never a panic.
func TestLoadRejectsCorruptHeader(t *testing.T) {
	// corrupt builds a fresh tree, lets mutate damage its record or pages,
	// and requires the reopen to fail.
	corrupt := func(name string, n int, mutate func(disk *storage.Disk, root storage.PageID, meta []byte)) {
		t.Helper()
		disk := storage.NewDisk(storage.DefaultBlockSize)
		b := NewBuilder(storage.NewPager(disk, -1), Config{Fanout: 8})
		var leaves []ChildEntry
		items := zoo.Uniform(n, 0.05, 21)
		for lo := 0; lo < len(items); lo += 8 {
			leaves = append(leaves, b.WriteLeaf(items[lo:min(lo+8, len(items))]))
		}
		tr := b.FinishPacked(leaves)
		meta := tr.EncodeMeta()
		mutate(disk, tr.Root(), meta)
		if _, err := OpenFromMeta(storage.NewPager(disk, -1), meta); err == nil {
			t.Errorf("%s: a corrupt tree should not open", name)
		}
	}
	word := func(meta []byte, i int, v uint64) {
		binary.LittleEndian.PutUint64(meta[len(treeMagic)+8*i:], v)
	}
	corrupt("bad root kind", 200, func(disk *storage.Disk, root storage.PageID, _ []byte) {
		page := append([]byte(nil), disk.PeekNoCopy(root)...)
		page[0] = 7
		disk.Write(root, page)
	})
	corrupt("oversized fanout", 200, func(_ *storage.Disk, _ storage.PageID, meta []byte) { word(meta, 4, 70000) })
	corrupt("internal root with height 1", 200, func(_ *storage.Disk, _ storage.PageID, meta []byte) { word(meta, 1, 1) })
	corrupt("root id overflowing uint32", 200, func(_ *storage.Disk, root storage.PageID, meta []byte) {
		// 2^32 + root would truncate back onto the valid root page if the
		// id were narrowed before range-checking.
		word(meta, 0, 1<<32|uint64(root))
	})
	corrupt("leaf root with height 2", 3, func(_ *storage.Disk, _ storage.PageID, meta []byte) { word(meta, 1, 2) })
	corrupt("root-less record counting items", 200, func(_ *storage.Disk, _ storage.PageID, meta []byte) {
		word(meta, 0, uint64(storage.NilPage))
		word(meta, 1, 0)
	})

	// A store whose block size cannot hold a node header must be rejected,
	// not panic (the root view would index past the page).
	tiny := storage.NewDisk(2)
	tiny.Alloc()
	meta := make([]byte, MetaSize)
	copy(meta, treeMagic[:])
	for i, v := range []uint64{0, 1, 0, 1, 8} { // root height items nodes fanout
		word(meta, i, v)
	}
	if _, err := OpenFromMeta(storage.NewPager(tiny, -1), meta); err == nil {
		t.Error("a tiny-block store should not open")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	tr := buildPacked(t, zoo.Uniform(200, 0.05, 4), 8)
	meta := tr.EncodeMeta()
	for _, cut := range []int{0, 10, len(meta) / 2, len(meta) - 4} {
		if _, err := OpenFromMeta(storage.NewPager(tr.Pager().Backend(), -1), meta[:cut]); err == nil {
			t.Errorf("a record truncated at %d should not open", cut)
		}
	}
}
