package rtree

import (
	"encoding/binary"
	"fmt"

	"prtree/internal/storage"
)

// Tree metadata: a small self-describing record (magic + eight words)
// holding everything needed to reopen a tree over an existing page store —
// the root page, shape counters and fanout. It is stored as the superblock
// blob of persistent backends (see storage.Backend.SetMeta), so a
// file-backed tree reopens in place with zero rebuild work. An empty tree
// records root NilPage and height 0.

// Version 02 appended the layout word to the metadata record. This package
// writes 0 there, and OpenFromMeta fails a record holding anything else
// with errCompressedLayout. Words 5 and 6 held the minimum fill and split
// heuristic of the in-place update paths earlier versions had: they are
// written as 0 and ignored on open, so records of either kind open alike.
var treeMagic = [8]byte{'P', 'R', 'T', 'R', 'E', 'E', '0', '2'}

// MetaSize is the encoded size of a tree metadata record.
const MetaSize = len(treeMagic) + 8*8

// EncodeMeta returns the tree's metadata record. Store it in a backend's
// superblock (or alongside the pages) and reopen with OpenFromMeta.
func (t *Tree) EncodeMeta() []byte {
	out := make([]byte, MetaSize)
	copy(out, treeMagic[:])
	words := [8]uint64{
		uint64(t.root),
		uint64(t.height),
		uint64(t.nItems),
		uint64(t.nNodes),
		uint64(t.cfg.Fanout),
		0, // formerly the minimum fill
		0, // formerly the split heuristic
		0, // layout: raw
	}
	for i, v := range words {
		binary.LittleEndian.PutUint64(out[len(treeMagic)+8*i:], v)
	}
	return out
}

// OpenFromMeta reopens a tree whose pages already live on pager's backend,
// described by a metadata record from EncodeMeta. The record and the root
// page header are validated against the backend's geometry before the tree
// is handed to callers; deeper corruption is caught by Validate, which
// walks every page.
func OpenFromMeta(pager *storage.Pager, meta []byte) (*Tree, error) {
	if len(meta) < MetaSize {
		return nil, fmt.Errorf("rtree: metadata record of %d bytes, want %d", len(meta), MetaSize)
	}
	if [8]byte(meta[:8]) != treeMagic {
		return nil, fmt.Errorf("rtree: bad tree magic %q", meta[:8])
	}
	var words [8]uint64
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(meta[len(treeMagic)+8*i:])
	}
	dev := pager.Backend()
	empty := words[0] == uint64(storage.NilPage)
	// Range-check the root id at full width before narrowing to PageID: a
	// corrupt upper half would otherwise truncate onto a valid page.
	if !empty && words[0] >= uint64(dev.NumPages()) {
		return nil, fmt.Errorf("rtree: root page %d out of range", words[0])
	}
	if words[7] != 0 {
		return nil, fmt.Errorf("%w (metadata layout word %d)", errCompressedLayout, words[7])
	}
	t := &Tree{
		pager:  pager,
		cfg:    Config{Fanout: int(words[4])},
		root:   storage.PageID(words[0]),
		height: int(words[1]),
		nItems: int(words[2]),
		nNodes: int(words[3]),
	}
	if empty {
		if t.height != 0 || t.nItems != 0 || t.nNodes != 0 {
			return nil, fmt.Errorf("rtree: a tree without a root records height %d, %d items, %d nodes", t.height, t.nItems, t.nNodes)
		}
	} else if t.height < 1 {
		return nil, fmt.Errorf("rtree: implausible height %d", t.height)
	}
	// Sanity-check the root page header through a zero-copy view over the
	// block (PeekNoCopy, so the backend's I/O accounting stays untouched)
	// before handing the tree to callers. The block size and
	// fanout come from the untrusted record too, so bound them first: the
	// header must fit the block, and the recorded fanout must not exceed
	// the block's real capacity — the entry-count check below then bounds
	// rectAt/refAt indexing transitively.
	if dev.BlockSize() < headerSize+entrySize {
		return nil, fmt.Errorf("rtree: block size %d cannot hold a node", dev.BlockSize())
	}
	if t.cfg.Fanout < 2 || t.cfg.Fanout > MaxFanout(dev.BlockSize()) {
		return nil, fmt.Errorf("rtree: implausible fanout %d for %d-byte blocks", t.cfg.Fanout, dev.BlockSize())
	}
	if empty {
		return t, nil
	}
	root := nodeView{data: dev.PeekNoCopy(t.root)}
	if kind := root.data[0]; kind != kindLeaf && kind != kindInternal {
		return nil, fmt.Errorf("rtree: root page %d has invalid kind %d", t.root, kind)
	}
	if err := checkFormat(t.root, root); err != nil {
		return nil, err
	}
	if cnt := root.count(); cnt > t.cfg.Fanout {
		return nil, fmt.Errorf("rtree: root page %d holds %d entries, fanout %d", t.root, cnt, t.cfg.Fanout)
	}
	if t.height > 1 && root.isLeaf() {
		return nil, fmt.Errorf("rtree: root page %d is a leaf but height is %d", t.root, t.height)
	}
	if t.height == 1 && !root.isLeaf() {
		return nil, fmt.Errorf("rtree: root page %d is internal but height is 1", t.root)
	}
	return t, nil
}
