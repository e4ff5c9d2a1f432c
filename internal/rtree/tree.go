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
	// MinFill is the minimum entries in a non-root node before deletion
	// triggers condensing; 0 means 2/5 of the fanout (Guttman's m <= M/2
	// regime).
	MinFill int
	// Split selects the overflow split heuristic for dynamic inserts.
	Split SplitKind
}

// SplitKind selects Guttman's node-split heuristic.
type SplitKind int

const (
	// QuadraticSplit is Guttman's quadratic-cost split (the common default).
	QuadraticSplit SplitKind = iota
	// LinearSplit is Guttman's linear-cost split.
	LinearSplit
	// RStarSplit enables the full R*-tree insertion heuristics of
	// Beckmann et al. (reference [6] of the paper): overlap-minimizing
	// ChooseSubtree, forced reinsertion, and the margin/overlap split.
	RStarSplit
)

// Tree is a paged R-tree. All node accesses go through the pager so that
// block I/O is counted on the underlying simulated disk.
//
// Reads come in two flavors. The query paths (Query, PointQuery,
// ContainmentQuery, NearestNeighbors, Walk, Validate, MBR) use zero-copy
// nodeViews over the pager's cached bytes, so a cache-hit node visit
// allocates nothing. The heuristic update paths (Insert, Delete; internal,
// for the in-memory update experiments) materialize nodes and memoize them
// in the pager's decoded cache, kept coherent by write-through in writeNode
// and invalidation in freeNode and the pager itself. Both flavors call
// Pager.Read first, so block-I/O accounting is identical to an
// implementation that decodes eagerly.
//
// An empty tree owns no page: its root is NilPage and its height 0. New
// returns one, and Release leaves one behind; every read path treats it as
// holding nothing.
//
// # Concurrency
//
// All read paths are safe for any number of concurrent goroutines:
// per-traversal scratch (explicit stacks, k-NN heaps) is sync.Pool-backed
// rather than tree state, and the pager underneath is lock-striped. The
// mutation paths (Insert, Delete, Release, bulk-load builders) require
// exclusive access — no reader or other writer may run concurrently with
// them. QueryBatch and SearchBatch fan a slice of queries across a bounded
// worker pool under this contract.
type Tree struct {
	pager  *storage.Pager
	cfg    Config
	root   storage.PageID
	height int // number of levels; 1 = root is a leaf
	nItems int
	nNodes int
	buf    []byte    // scratch block for serialization (mutation paths only)
	stacks sync.Pool // per-traversal scratch stacks (*[]storage.PageID)
}

// New creates an empty tree on the pager. It allocates no page; the first
// Insert writes the root leaf.
func New(pager *storage.Pager, cfg Config) *Tree {
	normalizeConfig(&cfg, pager.Backend().BlockSize())
	return &Tree{pager: pager, cfg: cfg, root: storage.NilPage, buf: make([]byte, pager.Backend().BlockSize())}
}

func normalizeConfig(cfg *Config, blockSize int) {
	if max := MaxFanout(blockSize); cfg.Fanout <= 0 || cfg.Fanout > max {
		cfg.Fanout = max
	}
	if cfg.Fanout < 2 {
		panic("rtree: fanout must be at least 2")
	}
	if cfg.MinFill <= 0 {
		cfg.MinFill = cfg.Fanout * 2 / 5
	}
	if cfg.MinFill > cfg.Fanout/2 {
		cfg.MinFill = cfg.Fanout / 2
	}
	if cfg.MinFill < 1 {
		cfg.MinFill = 1
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

// overflows reports whether n holds more entries than the fanout allows.
func (t *Tree) overflows(n *node) bool { return n.count() > t.cfg.Fanout }

// readNode returns the materialized form of the page for the mutation
// paths. The pager is always Read first — preserving hit/miss and block-I/O
// accounting exactly — and the decode is skipped when the pager still holds
// the node decoded from those same bytes.
func (t *Tree) readNode(id storage.PageID) *node {
	data := t.pager.Read(id)
	if v, ok := t.pager.Decoded(id); ok {
		return v.(*node)
	}
	n := decodeNode(data)
	t.pager.StoreDecoded(id, n)
	return n
}

// writeNode persists n and re-memoizes it: the write drops the stale
// decoded entry, and storing n afterwards keeps the cache warm for the
// next read of the page.
func (t *Tree) writeNode(id storage.PageID, n *node) {
	t.pager.Write(id, encodeNode(t.buf, n))
	t.pager.StoreDecoded(id, n)
}

func (t *Tree) allocNode(n *node) storage.PageID {
	id := t.pager.Backend().Alloc()
	t.writeNode(id, n)
	t.nNodes++
	return id
}

// allocPage writes pre-encoded page bytes (from encodeLeafPage /
// encodeInternalPage) without materializing a node.
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

// Query reports every stored item intersecting q to fn, in unspecified
// order. fn returning false stops the query early. The returned stats count
// node visits regardless of cache state; block-level I/O is tracked by the
// backend underneath the pager. fn must not mutate the tree: the traversal
// reads node entries in place from the page cache.
//
// Query is the no-options form of RunWindow; see query.go for the
// traversal-order and accounting guarantees.
func (t *Tree) Query(q geom.Rect, fn func(geom.Item) bool) QueryStats {
	st, _ := t.RunWindow(q, false, fn, RunOptions{})
	return st
}

// QueryCollect returns all items intersecting q.
func (t *Tree) QueryCollect(q geom.Rect) []geom.Item {
	var out []geom.Item
	t.Query(q, func(it geom.Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

// QueryCount returns only the query statistics, discarding results.
func (t *Tree) QueryCount(q geom.Rect) QueryStats {
	return t.Query(q, nil)
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
