package rtree

import (
	"fmt"

	"prtree/internal/geom"
	"prtree/internal/parallel"
	"prtree/internal/storage"
)

// Builder writes a tree bottom-up or top-down on behalf of the bulk
// loaders. Every page written is counted as a block write on the disk, so
// bulk-loading I/O is measured, not modeled.
type Builder struct {
	tree   *Tree
	nItems int
	buf    []byte // the page being encoded
}

// NewBuilder prepares building a tree on pager. The builder owns the tree
// until Finish is called.
func NewBuilder(pager *storage.Pager, cfg Config) *Builder {
	normalizeConfig(&cfg, pager.Backend().BlockSize())
	t := &Tree{pager: pager, cfg: cfg}
	return &Builder{tree: t, buf: make([]byte, pager.Backend().BlockSize())}
}

// Fanout returns the effective maximum entries per node.
func (b *Builder) Fanout() int { return b.tree.cfg.Fanout }

// WriteLeaf writes one leaf page holding items and returns its child entry
// for the level above. The page is encoded straight from items into the
// builder's block buffer.
func (b *Builder) WriteLeaf(items []geom.Item) ChildEntry {
	if len(items) == 0 || len(items) > b.tree.cfg.Fanout {
		panic(fmt.Sprintf("rtree: leaf with %d entries (fanout %d)", len(items), b.tree.cfg.Fanout))
	}
	data, mbr := encodeLeafPage(b.buf, items)
	id := b.tree.allocPage(data)
	b.nItems += len(items)
	return ChildEntry{Rect: mbr, Page: id}
}

// leafBatch is how many leaf pages WriteLeaves encodes between writes.
const leafBatch = 64

// WriteLeaves writes n leaf pages, page i holding the records gather(i,
// dst) appends to dst, and passes each page's entry to emit in order. The
// pages get the ids n WriteLeaf calls in order would give them and the same
// bytes, whatever workers is; workers (clamped to GOMAXPROCS) bounds the
// goroutines that gather and encode them, leafBatch pages at a time, while
// the calling goroutine writes each batch in page order. gather must be
// safe to call concurrently.
func (b *Builder) WriteLeaves(n, workers int, gather func(i int, dst []geom.Item) []geom.Item, emit func(ChildEntry)) {
	f := b.tree.cfg.Fanout
	if workers = parallel.Bound(workers); workers < 2 {
		buf := make([]geom.Item, 0, f)
		for i := range n {
			emit(b.WriteLeaf(gather(i, buf[:0])))
		}
		return
	}
	bs := len(b.buf)
	arena := make([]byte, leafBatch*bs)
	pages := make([][]byte, leafBatch)
	mbrs := make([]geom.Rect, leafBatch)
	counts := make([]int, leafBatch)
	bufs := make([][]geom.Item, workers)
	for w := range bufs {
		bufs[w] = make([]geom.Item, 0, f)
	}
	for lo := 0; lo < n; lo += leafBatch {
		m := min(leafBatch, n-lo)
		parallel.Run(workers, workers, func(w int) {
			for j := w * m / workers; j < (w+1)*m/workers; j++ {
				items := gather(lo+j, bufs[w][:0])
				if len(items) == 0 || len(items) > f {
					panic(fmt.Sprintf("rtree: leaf with %d entries (fanout %d)", len(items), f))
				}
				pages[j], mbrs[j] = encodeLeafPage(arena[j*bs:(j+1)*bs], items)
				counts[j] = len(items)
			}
		})
		for j, page := range pages[:m] {
			b.nItems += counts[j]
			emit(ChildEntry{Rect: mbrs[j], Page: b.tree.allocPage(page)})
		}
	}
}

// WriteInternal writes one internal page over the given children
// (1..Fanout entries) and returns its child entry, whose rectangle is the
// union of the children's.
func (b *Builder) WriteInternal(children []ChildEntry) ChildEntry {
	if len(children) == 0 || len(children) > b.tree.cfg.Fanout {
		panic(fmt.Sprintf("rtree: internal node with %d entries (fanout %d)", len(children), b.tree.cfg.Fanout))
	}
	data, mbr := encodeInternalPage(b.buf, children)
	id := b.tree.allocPage(data)
	return ChildEntry{Rect: mbr, Page: id}
}

// PackLevel groups consecutive entries into nodes of at most Fanout
// children — the bottom-up packing step of the two packed Hilbert
// loaders. Groups are balanced so no node is underfull: the
// remainder is spread by using ceil division.
func (b *Builder) PackLevel(children []ChildEntry) []ChildEntry {
	f := b.tree.cfg.Fanout
	nGroups := (len(children) + f - 1) / f
	out := make([]ChildEntry, 0, nGroups)
	for i := 0; i < nGroups; i++ {
		lo := i * len(children) / nGroups
		hi := (i + 1) * len(children) / nGroups
		out = append(out, b.WriteInternal(children[lo:hi]))
	}
	return out
}

// FinishPacked repeatedly packs levels until a single root remains and
// returns the finished tree. leafLevel must be the entries returned by
// WriteLeaf calls, in the desired packing order.
func (b *Builder) FinishPacked(leafLevel []ChildEntry) *Tree {
	if len(leafLevel) == 0 {
		return b.FinishEmpty()
	}
	level := leafLevel
	height := 1
	for len(level) > 1 {
		level = b.PackLevel(level)
		height++
	}
	return b.Finish(level[0], height)
}

// Finish seals the tree with the given root entry and height (number of
// levels; 1 means the root is a leaf).
func (b *Builder) Finish(root ChildEntry, height int) *Tree {
	t := b.tree
	t.root = root.Page
	t.height = height
	t.nItems = b.nItems
	b.tree = nil
	return t
}

// FinishEmpty seals an empty tree: like New's, it owns no page, and its
// height is 0.
func (b *Builder) FinishEmpty() *Tree {
	t := b.tree
	t.root = storage.NilPage
	b.tree = nil
	return t
}
