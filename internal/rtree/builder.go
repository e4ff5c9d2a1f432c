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
//
// The builder holds the pages it encodes for consecutive fresh ids, up to
// heldPages of them, and writes them with one Pager.Write when the next id
// does not follow, when it holds heldPages, and at Finish. Nothing reads
// the tree's pages before Finish, so the loaders see no difference, and a
// page file writes each such run with one pwrite.
type Builder struct {
	tree   *Tree
	nItems int
	held   [][]byte       // encoded pages for ids heldAt, heldAt+1, …, not yet written
	heldAt storage.PageID // the first held page's id
	spare  [][]byte       // block buffers not in use
}

// heldPages is the most pages a Builder holds before it writes them; it
// is also how many leaves WriteLeaves gathers and encodes at a time on one
// worker. Its block buffers and the slots a page file formats them in are
// what a serial load spends on writing: 130 KB at 4 KB blocks. On two or
// more workers WriteLeaves encodes parallelLeafBatch leaves at a time, so
// that starting its goroutines once a batch costs little.
const (
	heldPages         = 16
	parallelLeafBatch = 64
)

// NewBuilder prepares building a tree on pager. The builder owns the tree
// until Finish is called.
func NewBuilder(pager *storage.Pager, cfg Config) *Builder {
	normalizeConfig(&cfg, pager.Backend().BlockSize())
	return &Builder{tree: &Tree{pager: pager, cfg: cfg}}
}

// Fanout returns the effective maximum entries per node.
func (b *Builder) Fanout() int { return b.tree.cfg.Fanout }

// block returns a block buffer to encode a page into.
func (b *Builder) block() []byte {
	if n := len(b.spare); n > 0 {
		buf := b.spare[n-1]
		b.spare = b.spare[:n-1]
		return buf[:cap(buf)]
	}
	return make([]byte, b.tree.pager.Backend().BlockSize())
}

// place allocates a page for data, an encoding into a buffer from block,
// and holds it to be written.
func (b *Builder) place(data []byte) storage.PageID {
	id := b.tree.pager.Backend().Alloc()
	if n := len(b.held); n == heldPages || n > 0 && id != b.heldAt+storage.PageID(n) {
		b.flush()
	}
	if len(b.held) == 0 {
		b.heldAt = id
	}
	b.held = append(b.held, data)
	b.tree.nNodes++
	return id
}

// flush writes the held pages.
func (b *Builder) flush() {
	if len(b.held) == 0 {
		return
	}
	b.tree.pager.Write(b.heldAt, b.held...)
	b.spare = append(b.spare, b.held...)
	clear(b.held)
	b.held = b.held[:0]
}

// WriteLeaf writes one leaf page holding items and returns its child entry
// for the level above.
func (b *Builder) WriteLeaf(items []geom.Item) ChildEntry {
	if len(items) == 0 || len(items) > b.tree.cfg.Fanout {
		panic(fmt.Sprintf("rtree: leaf with %d entries (fanout %d)", len(items), b.tree.cfg.Fanout))
	}
	data, mbr := encodeItemsPage(b.block(), kindLeaf, items)
	b.nItems += len(items)
	return ChildEntry{Rect: mbr, Page: b.place(data)}
}

// WriteLeaves writes n leaf pages, page i holding the records gather(i,
// dst) appends to dst, and passes each page's entry to emit in order. The
// pages get the ids n WriteLeaf calls in order would give them and the same
// bytes, whatever workers is. It gathers and encodes a batch of pages at
// a time, on up to workers goroutines (clamped to GOMAXPROCS), then places
// them in order. gather must be safe to call concurrently.
func (b *Builder) WriteLeaves(n, workers int, gather func(i int, dst []geom.Item) []geom.Item, emit func(ChildEntry)) {
	f := b.tree.cfg.Fanout
	workers = parallel.Bound(workers)
	batch := heldPages
	if workers > 1 {
		batch = parallelLeafBatch
	}
	pages := make([][]byte, batch)
	mbrs := make([]geom.Rect, batch)
	counts := make([]int, batch)
	bufs := make([][]geom.Item, workers)
	for w := range bufs {
		bufs[w] = make([]geom.Item, 0, f)
	}
	var lo, m int // the batch: pages lo, …, lo+m-1
	encode := func(w int) {
		for j := w * m / workers; j < (w+1)*m/workers; j++ {
			items := gather(lo+j, bufs[w][:0])
			if len(items) == 0 || len(items) > f {
				panic(fmt.Sprintf("rtree: leaf with %d entries (fanout %d)", len(items), f))
			}
			pages[j], mbrs[j] = encodeItemsPage(pages[j], kindLeaf, items)
			counts[j] = len(items)
		}
	}
	for ; lo < n; lo += m {
		m = min(batch, n-lo)
		b.flush()
		for j := range m {
			pages[j] = b.block()
		}
		parallel.Run(workers, workers, encode)
		for j, page := range pages[:m] {
			b.nItems += counts[j]
			emit(ChildEntry{Rect: mbrs[j], Page: b.place(page)})
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
	data, mbr := encodeInternalPage(b.block(), children)
	return ChildEntry{Rect: mbr, Page: b.place(data)}
}

// WriteGroup writes one group of a bulk load's stage as a page and returns
// its entry: at level 0 the items are records and the page is a leaf;
// above it each item is a page's entry carried up as a record (rect = node
// MBR, id = node page), and the page is an internal node over them.
func (b *Builder) WriteGroup(level int, items []geom.Item) ChildEntry {
	if level == 0 {
		return b.WriteLeaf(items)
	}
	if len(items) == 0 || len(items) > b.tree.cfg.Fanout {
		panic(fmt.Sprintf("rtree: internal node with %d entries (fanout %d)", len(items), b.tree.cfg.Fanout))
	}
	data, mbr := encodeItemsPage(b.block(), kindInternal, items)
	return ChildEntry{Rect: mbr, Page: b.place(data)}
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
	b.flush()
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
