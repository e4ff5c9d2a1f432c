package rtree

import (
	"fmt"
	"runtime/debug"

	"prtree/internal/storage"
)

// Validate checks the structural invariants of the tree and returns the
// first violation found, or nil. It verifies:
//
//   - every leaf sits at level 0 (uniform depth, the defining R-tree shape);
//   - every page has format flag 0 (a page of the compressed layout is
//     reported as errCompressedLayout);
//   - every internal entry's rectangle equals the exact MBR of its child;
//   - node counts are within [1, fanout] (the root leaf may be empty);
//   - the recorded item and node counts match the actual tree;
//   - no page is referenced twice.
//
// An empty tree that owns no page is valid when it counts nothing.
func (t *Tree) Validate() error {
	if t.root == storage.NilPage {
		if t.nItems != 0 || t.nNodes != 0 || t.height != 0 {
			return fmt.Errorf("rtree: a tree without a root reports %d items, %d nodes, height %d", t.nItems, t.nNodes, t.height)
		}
		return nil
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // see readView
	seen := make(map[storage.PageID]bool)
	items, nodes, err := t.validate(t.root, t.height-1, seen)
	if err != nil {
		return err
	}
	if items != t.nItems {
		return fmt.Errorf("rtree: item count %d, tree reports %d", items, t.nItems)
	}
	if nodes != t.nNodes {
		return fmt.Errorf("rtree: node count %d, tree reports %d", nodes, t.nNodes)
	}
	return nil
}

func (t *Tree) validate(id storage.PageID, level int, seen map[storage.PageID]bool) (items, nodes int, err error) {
	if seen[id] {
		return 0, 0, fmt.Errorf("rtree: page %d referenced twice", id)
	}
	seen[id] = true
	v := t.readView(id)
	if err := checkFormat(id, v); err != nil {
		return 0, 0, err
	}
	cnt := v.count()
	if cnt > t.cfg.Fanout {
		return 0, 0, fmt.Errorf("rtree: page %d holds %d entries, fanout %d", id, cnt, t.cfg.Fanout)
	}
	if v.isLeaf() {
		if level != 0 {
			return 0, 0, fmt.Errorf("rtree: leaf %d at level %d", id, level)
		}
		if cnt == 0 && id != t.root {
			return 0, 0, fmt.Errorf("rtree: non-root leaf %d is empty", id)
		}
		return cnt, 1, nil
	}
	if level == 0 {
		return 0, 0, fmt.Errorf("rtree: internal node %d at leaf level", id)
	}
	if cnt == 0 {
		return 0, 0, fmt.Errorf("rtree: internal node %d is empty", id)
	}
	nodes = 1
	for i := 0; i < cnt; i++ {
		r := v.rectAt(i)
		child := storage.PageID(v.refAt(i))
		// The recursive child read below may refresh this page's cached
		// bytes' residency, but never their content: reads don't write, so
		// the view stays valid across the recursion.
		if got := t.readView(child).mbr(); got != r {
			return 0, 0, fmt.Errorf("rtree: node %d entry %d rect %v != child MBR %v", id, i, r, got)
		}
		ci, cnodes, err := t.validate(child, level-1, seen)
		if err != nil {
			return 0, 0, err
		}
		items += ci
		nodes += cnodes
	}
	return items, nodes, nil
}
