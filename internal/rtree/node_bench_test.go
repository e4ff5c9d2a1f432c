package rtree

import (
	"testing"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// fullPage encodes a max-fanout internal page for the codec benchmark.
func fullPage() ([]ChildEntry, []byte) {
	children := make([]ChildEntry, MaxFanout(storage.DefaultBlockSize))
	for i := range children {
		x := float64(i)
		children[i] = ChildEntry{Rect: geom.NewRect(x, x*0.5, x+2, x*0.5+3), Page: storage.PageID(i)}
	}
	data, _ := encodeInternalPage(make([]byte, storage.DefaultBlockSize), children)
	return children, data
}

// TestNodeViewMatchesDecode: the view decodes every entry, and their MBR,
// exactly as the page was encoded.
func TestNodeViewMatchesDecode(t *testing.T) {
	children, data := fullPage()
	v := nodeView{data: data}
	if v.isLeaf() || v.count() != len(children) {
		t.Fatalf("header mismatch: leaf %v count %d/%d", v.isLeaf(), v.count(), len(children))
	}
	mbr := geom.EmptyRect()
	for i, c := range children {
		if v.rectAt(i) != c.Rect {
			t.Fatalf("rectAt(%d) = %v, want %v", i, v.rectAt(i), c.Rect)
		}
		if storage.PageID(v.refAt(i)) != c.Page {
			t.Fatalf("refAt(%d) = %d, want %d", i, v.refAt(i), c.Page)
		}
		if it := v.itemAt(i); it.Rect != c.Rect || storage.PageID(it.ID) != c.Page {
			t.Fatalf("itemAt(%d) = %v", i, it)
		}
		mbr = mbr.Union(c.Rect)
	}
	if v.mbr() != mbr {
		t.Fatalf("mbr mismatch: %v != %v", v.mbr(), mbr)
	}
}

// BenchmarkNodeView prices what a query pays per node visit: a full
// intersection scan of a max-fanout page through the zero-copy view.
func BenchmarkNodeView(b *testing.B) {
	_, data := fullPage()
	q := geom.NewRect(10, 5, 60, 30)
	b.ReportAllocs()
	hits := 0
	for i := 0; i < b.N; i++ {
		v := nodeView{data: data}
		for j, cnt := 0, v.count(); j < cnt; j++ {
			if q.Intersects(v.rectAt(j)) {
				hits++
			}
		}
	}
	if hits == 0 {
		b.Fatal("query should match")
	}
}
