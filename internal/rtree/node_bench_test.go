package rtree

import (
	"testing"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// fullPage encodes a max-fanout internal page for the codec benchmarks.
func fullPage() []byte {
	n := &node{kind: kindInternal}
	f := MaxFanout(storage.DefaultBlockSize)
	for i := 0; i < f; i++ {
		x := float64(i)
		n.append(geom.NewRect(x, x*0.5, x+2, x*0.5+3), uint32(i))
	}
	buf := make([]byte, storage.DefaultBlockSize)
	return append([]byte(nil), encodeNode(buf, n)...)
}

func TestNodeViewMatchesDecode(t *testing.T) {
	data := fullPage()
	n := decodeNode(data)
	v := nodeView{data: data}
	if v.isLeaf() != n.isLeaf() || v.count() != n.count() {
		t.Fatalf("header mismatch: leaf %v/%v count %d/%d",
			v.isLeaf(), n.isLeaf(), v.count(), n.count())
	}
	for i := 0; i < n.count(); i++ {
		if v.rectAt(i) != n.rects[i] {
			t.Fatalf("rectAt(%d) = %v, want %v", i, v.rectAt(i), n.rects[i])
		}
		if v.refAt(i) != n.refs[i] {
			t.Fatalf("refAt(%d) = %d, want %d", i, v.refAt(i), n.refs[i])
		}
		if it := v.itemAt(i); it.Rect != n.rects[i] || it.ID != n.refs[i] {
			t.Fatalf("itemAt(%d) = %v", i, it)
		}
	}
	if v.mbr() != n.mbr() {
		t.Fatalf("mbr mismatch: %v != %v", v.mbr(), n.mbr())
	}
}

func TestEncodePageHelpersMatchEncodeNode(t *testing.T) {
	items := randItems(50, 42)
	n := &node{kind: kindLeaf}
	for _, it := range items {
		n.append(it.Rect, it.ID)
	}
	buf1 := make([]byte, storage.DefaultBlockSize)
	buf2 := make([]byte, storage.DefaultBlockSize)
	want := encodeNode(buf1, n)
	got, mbr := encodeLeafPage(buf2, items)
	if string(got) != string(want) {
		t.Fatal("encodeLeafPage bytes differ from encodeNode")
	}
	if mbr != n.mbr() {
		t.Fatalf("encodeLeafPage mbr = %v, want %v", mbr, n.mbr())
	}

	children := make([]ChildEntry, 30)
	in := &node{kind: kindInternal}
	for i := range children {
		children[i] = ChildEntry{Rect: items[i].Rect, Page: storage.PageID(i * 3)}
		in.append(children[i].Rect, uint32(children[i].Page))
	}
	want = encodeNode(buf1, in)
	got, mbr = encodeInternalPage(buf2, children)
	if string(got) != string(want) {
		t.Fatal("encodeInternalPage bytes differ from encodeNode")
	}
	if mbr != in.mbr() {
		t.Fatalf("encodeInternalPage mbr = %v, want %v", mbr, in.mbr())
	}
}

// BenchmarkNodeView compares the eager decode the query path used to pay on
// every node visit against the zero-copy view that replaced it: a full
// intersection scan of a max-fanout page.
func BenchmarkNodeView(b *testing.B) {
	data := fullPage()
	q := geom.NewRect(10, 5, 60, 30)

	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			n := decodeNode(data)
			for j := range n.rects {
				if q.Intersects(n.rects[j]) {
					hits++
				}
			}
		}
		if hits == 0 {
			b.Fatal("query should match")
		}
	})
	b.Run("view", func(b *testing.B) {
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
	})
}
