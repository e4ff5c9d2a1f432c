// Package rtree implements the paged, read-only R-tree shared by every index
// variant in this repository: the paper's node layout (one node per 4 KB
// block, 36-byte entries, max fanout 113), the builder the bulk loaders
// write it with, the relocator that moves a built tree's pages, the query
// engine with block-level I/O accounting, and structural validation. A
// built tree is never updated in place; the dynamic index rebuilds instead
// (internal/logmethod).
package rtree

import (
	"fmt"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// Node kinds as stored in the page header.
const (
	kindLeaf     byte = 0
	kindInternal byte = 1
)

// ChildEntry describes a child of an internal node: the minimal bounding
// box of the child's subtree and the page holding the child.
type ChildEntry struct {
	Rect geom.Rect
	Page storage.PageID
}

// nodeView is a zero-copy window onto a page's bytes: header fields come
// straight from the page header and entries are decoded lazily, one at a
// time, so a cache-hit node visit allocates nothing. Views are values — do
// not take their address — and borrow the pager's cached slice: they are
// only valid until the next write to the page, so callers must not mutate
// the tree while holding one.
type nodeView struct {
	data []byte
}

func (v nodeView) isLeaf() bool { return v.data[0] == kindLeaf }

func (v nodeView) count() int { return int(v.data[2]) | int(v.data[3])<<8 }

// entryOff returns the byte offset of entry i.
func (v nodeView) entryOff(i int) int { return headerSize + i*entrySize }

// rectAt decodes entry i's rectangle.
func (v nodeView) rectAt(i int) geom.Rect {
	return storage.DecodeRect(v.data[v.entryOff(i):])
}

// refAt decodes entry i's reference: a data id in leaves, a child page id
// in internal nodes.
func (v nodeView) refAt(i int) uint32 {
	return storage.DecodeRef(v.data[v.entryOff(i):])
}

func (v nodeView) itemAt(i int) geom.Item {
	return storage.DecodeItem(v.data[v.entryOff(i):])
}

// mbr unions every entry rectangle.
func (v nodeView) mbr() geom.Rect {
	out := geom.EmptyRect()
	for i, cnt := 0, v.count(); i < cnt; i++ {
		out = out.Union(v.rectAt(i))
	}
	return out
}

// items materializes every entry (used by Walk, which hands callers a
// slice; the query paths never call this).
func (v nodeView) items() []geom.Item {
	out := make([]geom.Item, v.count())
	for i := range out {
		out[i] = v.itemAt(i)
	}
	return out
}

// encodeHeader stamps the page header.
func encodeHeader(buf []byte, kind byte, cnt int) {
	buf[0] = kind
	buf[1] = 0
	buf[2] = byte(cnt)
	buf[3] = byte(cnt >> 8)
}

// encodeItemsPage serializes a node of the given kind whose entries are
// items (an internal node's: rect = child MBR, id = child page) directly
// into a block-sized buffer, returning the encoded prefix and the node's
// MBR. The bulk-load builder uses it to write pages straight from its
// entries.
func encodeItemsPage(buf []byte, kind byte, items []geom.Item) ([]byte, geom.Rect) {
	need := headerSize + len(items)*entrySize
	if need > len(buf) {
		panic(fmt.Sprintf("rtree: node with %d entries does not fit in %d-byte block", len(items), len(buf)))
	}
	encodeHeader(buf, kind, len(items))
	mbr := geom.EmptyRect()
	off := headerSize
	for _, it := range items {
		storage.EncodeItem(buf[off:], it)
		mbr = mbr.Union(it.Rect)
		off += entrySize
	}
	return buf[:need], mbr
}

// encodeInternalPage is encodeItemsPage for an internal node over children.
func encodeInternalPage(buf []byte, children []ChildEntry) ([]byte, geom.Rect) {
	need := headerSize + len(children)*entrySize
	if need > len(buf) {
		panic(fmt.Sprintf("rtree: internal node with %d entries does not fit in %d-byte block", len(children), len(buf)))
	}
	encodeHeader(buf, kindInternal, len(children))
	mbr := geom.EmptyRect()
	off := headerSize
	for _, c := range children {
		storage.EncodeItem(buf[off:], geom.Item{Rect: c.Rect, ID: uint32(c.Page)})
		mbr = mbr.Union(c.Rect)
		off += entrySize
	}
	return buf[:need], mbr
}
