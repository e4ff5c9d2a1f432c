package rtree

import (
	"fmt"
	"runtime/debug"
	"sync"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// Config tunes a tree. The zero value selects the paper's defaults.
type Config struct {
	// Fanout caps entries per node; 0 means the block-size maximum (113
	// for 4 KB blocks).
	Fanout int
}

// Tree is a paged R-tree. All node accesses go through the pager so that
// block I/O is counted on the underlying simulated disk. A tree is written
// once, by a Builder (or copied by Relocated), and read-only after that:
// no page of a built tree is ever rewritten.
//
// The read paths (RunWindow, RunNearest and the wrappers over them, Walk,
// Validate, MBR) use zero-copy nodeViews over the pager's cached bytes, so
// a cache-hit node visit allocates nothing.
//
// An empty tree owns no page: its root is NilPage and its height 0. New,
// every loader over zero items (Builder.FinishEmpty) and Release leave one;
// every read path treats it as holding nothing.
//
// # Concurrency
//
// All read paths are safe for any number of concurrent goroutines:
// per-traversal scratch (explicit stacks, k-NN heaps) is sync.Pool-backed
// rather than tree state, and the pager underneath locks per shard. A
// Builder and Release require exclusive access — no reader may run
// concurrently with them. A batch of queries is the caller's own
// goroutines, one query each.
type Tree struct {
	pager  *storage.Pager
	cfg    Config
	root   storage.PageID
	height int // number of levels; 1 = root is a leaf
	nItems int
	nNodes int
	stacks sync.Pool // per-traversal scratch stacks (*[]storage.PageID)
}

// New returns an empty tree on the pager. It allocates no page.
func New(pager *storage.Pager, cfg Config) *Tree {
	normalizeConfig(&cfg, pager.Backend().BlockSize())
	return &Tree{pager: pager, cfg: cfg, root: storage.NilPage}
}

func normalizeConfig(cfg *Config, blockSize int) {
	if max := MaxFanout(blockSize); cfg.Fanout <= 0 || cfg.Fanout > max {
		cfg.Fanout = max
	}
	if cfg.Fanout < 2 {
		panic("rtree: fanout must be at least 2")
	}
}

// Pager exposes the tree's pager (read-only use by callers measuring I/O).
func (t *Tree) Pager() *storage.Pager { return t.pager }

// Config returns the tree's effective configuration.
func (t *Tree) Config() Config { return t.cfg }

// Root returns the root page id.
func (t *Tree) Root() storage.PageID { return t.root }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.nItems }

// Nodes returns the number of pages the tree occupies.
func (t *Tree) Nodes() int { return t.nNodes }

// readView returns a zero-copy view of the page. The view borrows the
// pager's cached slice and stays valid only until the page is written.
//
// On a file-backed tree that slice can be the index file's own mapping,
// and an index file cut short under a live handle turns the next touch of
// a lost page into SIGBUS. Every entry point that walks views therefore
// runs with debug.SetPanicOnFault for its duration (and restores the
// caller's setting): the fault is a panic on the walking goroutine, which
// callers handle like a failed checksum, not the death of the process.
func (t *Tree) readView(id storage.PageID) nodeView {
	return nodeView{data: t.pager.Read(id)}
}

// allocPage writes pre-encoded page bytes (from encodeLeafPage /
// encodeInternalPage) to a new page.
func (t *Tree) allocPage(data []byte) storage.PageID {
	id := t.pager.Backend().Alloc()
	t.pager.Write(id, data)
	t.nNodes++
	return id
}

func (t *Tree) freeNode(id storage.PageID) {
	t.pager.Invalidate(id)
	t.pager.Backend().Free(id)
	t.nNodes--
}

// grabStack borrows a traversal scratch stack from the pool, so nested
// queries (issued from a visitor callback) and concurrent queries each get
// their own rather than corrupting another traversal. The pool hands back a
// pointer-to-slice (SA6002): putting the slice value itself would box its
// header, allocating on every query.
func (t *Tree) grabStack() *[]storage.PageID {
	sp, _ := t.stacks.Get().(*[]storage.PageID)
	if sp == nil {
		s := make([]storage.PageID, 0, 64)
		sp = &s
	}
	*sp = (*sp)[:0]
	return sp
}

func (t *Tree) releaseStack(sp *[]storage.PageID, s []storage.PageID) {
	*sp = s[:0]
	t.stacks.Put(sp)
}

// QueryStats reports the work done by one window query.
type QueryStats struct {
	NodesVisited    int // total nodes touched, including the root
	LeavesVisited   int
	InternalVisited int
	Results         int
}

// Walk visits every node top-down, calling fn with the node's page, level
// (0 = leaf level) and entries. Internal entries carry child page ids in
// Item.ID. Walk is intended for inspection, validation and pinning.
func (t *Tree) Walk(fn func(page storage.PageID, level int, isLeaf bool, entries []geom.Item)) {
	if t.root == storage.NilPage {
		return
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // see readView
	type frame struct {
		page  storage.PageID
		level int
	}
	stack := []frame{{page: t.root, level: t.height - 1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := t.readView(f.page)
		isLeaf := v.isLeaf()
		entries := v.items()
		// Children are pushed (reversed, for recursive preorder) before fn
		// runs so a callback that writes pages cannot skew the traversal.
		if !isLeaf {
			for i := v.count() - 1; i >= 0; i-- {
				stack = append(stack, frame{page: storage.PageID(v.refAt(i)), level: f.level - 1})
			}
		}
		fn(f.page, f.level, isLeaf, entries)
	}
}

// LeafCost is ExpectedLeaves' answer: the expected number of leaves a
// window meets, and the three sums of the leaf MBRs the unclipped form of
// that expectation is made of.
type LeafCost struct {
	Expected      float64 // leaves a window meets, in expectation
	Leaves        int     // leaf count
	Area          float64 // Σ leaf MBR area
	HalfPerimeter float64 // Σ leaf MBR half-perimeter
}

// ExpectedLeaves returns the exact expected number of t's leaves that a
// w×h window meets when the window's lower-left corner is uniform over
// world shrunk by (w, h), X × Y = [MinX, MaxX−w] × [MinY, MaxY−h]: the
// cost of a query whose internal nodes are all cached. The window meets
// leaf i with probability |[x₁−w, x₂] ∩ X| · |[y₁−h, y₂] ∩ Y| ÷ (|X|·|Y|),
// clipped at the world's edge; unclipped, the sum is (Σ area + w·Σ height
// + h·Σ width + Leaves·w·h) ÷ (|X|·|Y|). It reads every leaf once through
// the pager, and writes nothing.
func ExpectedLeaves(t *Tree, world geom.Rect, w, h float64) LeafCost {
	var c LeafCost
	t.Walk(func(_ storage.PageID, _ int, isLeaf bool, entries []geom.Item) {
		if !isLeaf {
			return
		}
		m := geom.ItemsMBR(entries)
		c.Leaves++
		c.Area += m.Area()
		c.HalfPerimeter += m.Perimeter()
		c.Expected += hitChance(m.MinX-w, m.MaxX, world.MinX, world.MaxX-w) *
			hitChance(m.MinY-h, m.MaxY, world.MinY, world.MaxY-h)
	})
	return c
}

// hitChance is the probability that a point uniform over [lo, hi] lies in
// [a, b]; an empty or one-point [lo, hi] is the point lo.
func hitChance(a, b, lo, hi float64) float64 {
	if hi <= lo {
		if a <= lo && lo <= b {
			return 1
		}
		return 0
	}
	return max(0, min(b, hi)-max(a, lo)) / (hi - lo)
}

// Items returns every stored item by scanning the leaves.
func (t *Tree) Items() []geom.Item {
	out := make([]geom.Item, 0, t.nItems)
	t.Walk(func(_ storage.PageID, _ int, isLeaf bool, entries []geom.Item) {
		if isLeaf {
			out = append(out, entries...)
		}
	})
	return out
}

// PinInternal pins every internal node in the pager, reproducing the
// paper's query setup where all internal nodes are cached (<= 6 MB) so a
// query's disk reads are exactly the leaf blocks fetched. It returns the
// number of pages pinned.
func (t *Tree) PinInternal() int {
	pinned := 0
	t.Walk(func(page storage.PageID, _ int, isLeaf bool, _ []geom.Item) {
		if !isLeaf {
			t.pager.Pin(page)
			pinned++
		}
	})
	return pinned
}

// MBR returns the bounding box of the whole tree (invalid rect when empty
// or released).
func (t *Tree) MBR() geom.Rect {
	if t.root == storage.NilPage {
		return geom.EmptyRect()
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // see readView
	return t.readView(t.root).mbr()
}

// Release frees every page of the tree back to the disk and invalidates
// cached copies, leaving an empty tree that owns no page. Callers that
// rebuild indexes (e.g. a bulk load into an existing index) use this to
// reclaim space.
func (t *Tree) Release() {
	t.FreePages()
	t.root = storage.NilPage
	t.nItems = 0
	t.height = 0
	t.nNodes = 0
}

// FreePages frees every page of the tree back to the backend WITHOUT
// mutating the in-memory structure. This is the release path for a tree
// that lock-free readers may still be traversing through a stale
// directory snapshot (see internal/logmethod): the backend's epoch pins
// keep the freed pages byte-stable until those readers drain, and leaving
// the struct untouched keeps their root/height loads race-free. The tree
// must not be used for new work after FreePages.
func (t *Tree) FreePages() {
	var pages []storage.PageID
	t.Walk(func(page storage.PageID, _ int, _ bool, _ []geom.Item) {
		pages = append(pages, page)
	})
	for _, p := range pages {
		t.freeNode(p)
	}
}

// Utilization returns average node fill as a fraction of fanout, computed
// separately for leaves and internal nodes. A freshly bulk-loaded tree
// should report > 0.99 leaf utilization (paper §3.3).
func (t *Tree) Utilization() (leaf, internal float64) {
	var leafEntries, leafNodes, intEntries, intNodes int
	t.Walk(func(_ storage.PageID, _ int, isLeaf bool, entries []geom.Item) {
		if isLeaf {
			leafEntries += len(entries)
			leafNodes++
		} else {
			intEntries += len(entries)
			intNodes++
		}
	})
	if leafNodes > 0 {
		leaf = float64(leafEntries) / float64(leafNodes*t.cfg.Fanout)
	}
	if intNodes > 0 {
		internal = float64(intEntries) / float64(intNodes*t.cfg.Fanout)
	}
	return leaf, internal
}

// String summarizes the tree.
func (t *Tree) String() string {
	return fmt.Sprintf("rtree{items=%d nodes=%d height=%d fanout=%d}",
		t.nItems, t.nNodes, t.height, t.cfg.Fanout)
}
