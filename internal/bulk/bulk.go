// Package bulk implements the four R-tree bulk-loading algorithms the
// paper compares — the packed Hilbert R-tree (H), the four-dimensional
// Hilbert R-tree (H4), the Top-down Greedy Split R-tree (TGS) and the
// PR-tree (PR) — each with two entries.
//
// Load consumes a storage.ItemFile and performs the loader's external
// passes through the simulated disk at a memory budget of
// Options.MemoryItems records, so bulk-loading I/O is measured
// operationally, matching the accounting of the paper's Figures 9-11. It
// touches two stores. Finished tree pages go to the pager's backend,
// through rtree.Builder and nothing else. Everything temporary — sort runs,
// sorted lists, grid partitions, the files between stages — goes to the
// store the input file lives on (in.Backend()). When that is the pager's
// own backend (the paper's set-up, and prbench's fig9–11) one device sees
// all the I/O.
//
// LoadSlice builds from records already in memory, over permutations of
// the slice: no ItemFile, no temporary on any store, nothing written but
// tree pages, and MemoryItems is not consulted. Every facade load of a
// slice takes it. H and H4 write the pages Load writes; so does TGS when no
// two records tie on a coordinate and their id, and PR while the input fits
// in MemoryItems.
package bulk

import (
	"prtree/internal/extsort"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// Options tunes the loaders. The zero value selects the paper's setup:
// 4 KB blocks with fanout 113 and a default memory budget.
type Options struct {
	// Fanout caps node entries; 0 means the block-size maximum (113 at
	// 4 KB).
	Fanout int
	// MemoryItems is M, the number of records that fit in main memory
	// (0 means DefaultMemoryItems). Only the external loaders (Load) read
	// it; LoadSlice, and with it every facade load, does not.
	MemoryItems int
	// Parallelism bounds the bulk-load pipeline's worker pool (clamped to
	// GOMAXPROCS; 0 or 1 means serial). Every loader produces the same
	// tree shape and identical block-I/O counts at every setting; the
	// knob only spreads the CPU work across cores: sorting, key
	// computation and node encoding of independent sort runs, in the PR
	// loader the kd recursion of every in-memory pseudo-PR-tree build
	// (pseudo.Build), in LoadSlice's TGS the four sorts, and in LoadSlice's
	// PR, H and H4 the gathering and encoding of the leaf pages, which come
	// out byte-identical. A sort's run
	// formation holds one chunk of MemoryItems decoded records (40 bytes
	// each) and one sort arena of 32 bytes a record; a parallel one holds
	// an arena per worker and Parallelism+1 chunks — fewer in the PR and
	// TGS loaders, which sort every chunk by all four axes from one scan
	// of the input and so keep four workers busy per chunk (two chunks up
	// to Parallelism 4). An in-memory build adds a four-byte permutation
	// entry a record, about 40 KB of peel scratch a worker at fanout 113,
	// and, from Parallelism 2 on, a batch of 64 page buffers for stage 0.
	Parallelism int
}

// hilbertBits is the Hilbert loaders' resolution per dimension: 2^16 cells
// a side, so a 4D key fills 64 bits.
const hilbertBits = 16

// DefaultMemoryItems corresponds to the paper's 64 MB of TPIE memory
// at 36 bytes per record, scaled down to keep laptop experiments honest:
// 2^16 records (~2.4 MB) so that external rounds actually happen at the
// dataset sizes the harness uses.
const DefaultMemoryItems = 1 << 16

func (o Options) normalized(blockSize int) Options {
	if max := rtree.MaxFanout(blockSize); o.Fanout <= 0 || o.Fanout > max {
		o.Fanout = max
	}
	if o.MemoryItems <= 0 {
		o.MemoryItems = DefaultMemoryItems
	}
	min := 4 * storage.ItemsPerBlock(blockSize)
	if o.MemoryItems < min {
		o.MemoryItems = min
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	return o
}

// sortConfig returns the external-sort configuration the loader's sorts
// share.
func (o Options) sortConfig() extsort.Config {
	return extsort.Config{MemoryItems: o.MemoryItems, Workers: o.Parallelism}
}

// Loader identifies a bulk-loading algorithm.
type Loader int

const (
	// LoaderHilbert is the packed Hilbert R-tree (H in the paper).
	LoaderHilbert Loader = iota
	// LoaderHilbert4D is the four-dimensional Hilbert R-tree (H4).
	LoaderHilbert4D
	// LoaderTGS is the Top-down Greedy Split R-tree (TGS).
	LoaderTGS
	// LoaderPR is the Priority R-tree (PR), the paper's contribution.
	LoaderPR
)

// String returns the paper's abbreviation for the loader.
func (l Loader) String() string {
	switch l {
	case LoaderHilbert:
		return "H"
	case LoaderHilbert4D:
		return "H4"
	case LoaderTGS:
		return "TGS"
	case LoaderPR:
		return "PR"
	default:
		return "?"
	}
}

// Load bulk-loads a tree with the chosen algorithm onto the pager,
// consuming in; temporaries go to in's store, and every one is freed.
func Load(l Loader, pager *storage.Pager, in *storage.ItemFile, opt Options) *rtree.Tree {
	switch l {
	case LoaderHilbert, LoaderHilbert4D:
		return hilbertLoad(l, pager, in, opt)
	case LoaderTGS:
		return TGS(pager, in, opt)
	case LoaderPR:
		return PRTree(pager, in, opt)
	default:
		panic("bulk: unknown loader")
	}
}

// LoadSlice bulk-loads a tree over items with the chosen algorithm in
// memory (see the package doc); items is only read.
func LoadSlice(l Loader, pager *storage.Pager, items []geom.Item, opt Options) *rtree.Tree {
	switch l {
	case LoaderHilbert, LoaderHilbert4D:
		return hilbertSlice(l, pager, items, opt)
	case LoaderTGS:
		return tgsSlice(pager, items, opt)
	case LoaderPR:
		return PRTreeSlice(pager, items, opt)
	default:
		panic("bulk: unknown loader")
	}
}

// Loaders lists every algorithm in the paper's presentation order.
var Loaders = []Loader{LoaderHilbert, LoaderHilbert4D, LoaderPR, LoaderTGS}

// worldOf scans a file for its bounding box (one linear pass).
func worldOf(f *storage.ItemFile) geom.Rect {
	world := geom.EmptyRect()
	r := f.Reader()
	for {
		it, ok := r.Next()
		if !ok {
			return world
		}
		world = world.Union(it.Rect)
	}
}

// packSortedLeaves streams a sorted file into full leaves (the final leaf
// may be partial) and returns their child entries in order. The file is
// freed afterwards.
func packSortedLeaves(b *rtree.Builder, sorted *storage.ItemFile) []rtree.ChildEntry {
	cap := b.Fanout()
	leaves := make([]rtree.ChildEntry, 0, sorted.Len()/cap+1)
	buf := make([]geom.Item, 0, cap)
	r := sorted.Reader()
	for {
		it, ok := r.Next()
		if !ok {
			break
		}
		buf = append(buf, it)
		if len(buf) == cap {
			leaves = append(leaves, b.WriteLeaf(buf))
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		leaves = append(leaves, b.WriteLeaf(buf))
	}
	sorted.Free()
	return leaves
}
