package rtree

import (
	"encoding/binary"
	"runtime/debug"

	"prtree/internal/storage"
)

// Moving a built tree's pages towards the start of its store, so the
// store's owner can give the freed tail back (see logmethod's Settle). A
// built tree is immutable and may be read lock-free through stale handles,
// so nothing is overwritten: a page that moves is copied to a freshly
// allocated page, and so is every ancestor of it, with the one child
// reference patched, up to a new root. The old pages are the caller's to
// free once nobody can reach them.

// PageSpans calls fn once for every page of the tree, children before
// parents, with the highest page id in the subtree the page roots (its own
// id for a leaf). Relocated(cut) copies exactly the pages whose top is at
// or above cut: the ones that move, and their ancestors. Only internal
// pages are read; the leaves' ids come from their parents.
func (t *Tree) PageSpans(fn func(page, top storage.PageID)) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // see readView
	var span func(page storage.PageID, level int) storage.PageID
	span = func(page storage.PageID, level int) storage.PageID {
		top := page
		if level > 0 {
			v := t.readView(page)
			for i, cnt := 0, v.count(); i < cnt; i++ {
				top = max(top, span(storage.PageID(v.refAt(i)), level-1))
			}
		}
		fn(page, top)
		return top
	}
	span(t.root, t.height-1)
}

// Relocated returns a tree of the same items in the same order none of
// whose pages lies at or above cut — provided the backend's allocator
// hands out pages below it, which is the caller's to plan — and the pages
// of t the new tree no longer uses. Pages below cut with nothing at or
// above it beneath them are shared between the two trees. Leaves are
// copied as bytes, unread otherwise; t itself is left as it was, for
// readers that still hold it. When no page lies at or above cut the result
// is t and no pages.
func (t *Tree) Relocated(cut storage.PageID) (*Tree, []storage.PageID) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // see readView
	var old []storage.PageID
	copyTo := func(from storage.PageID, data []byte) storage.PageID {
		old = append(old, from)
		id := t.pager.Backend().Alloc()
		t.pager.Write(id, data)
		return id
	}
	var move func(page storage.PageID, level int) storage.PageID
	move = func(page storage.PageID, level int) storage.PageID {
		if level == 0 {
			if page < cut {
				return page
			}
			return copyTo(page, t.pager.Read(page))
		}
		v := t.readView(page)
		data, patched := v.data, false // the cache's bytes until the first patch
		for i, cnt := 0, v.count(); i < cnt; i++ {
			child := storage.PageID(v.refAt(i))
			moved := move(child, level-1)
			if moved == child {
				continue
			}
			if !patched {
				data, patched = append([]byte(nil), v.data...), true
			}
			// The reference is the entry's last four bytes.
			binary.LittleEndian.PutUint32(data[v.entryOff(i)+entrySize-4:], uint32(moved))
		}
		if page < cut && !patched {
			return page
		}
		return copyTo(page, data)
	}
	root := move(t.root, t.height-1)
	if root == t.root {
		return t, nil
	}
	return &Tree{
		pager:  t.pager,
		cfg:    t.cfg,
		root:   root,
		height: t.height,
		nItems: t.nItems,
		nNodes: t.nNodes,
	}, old
}
