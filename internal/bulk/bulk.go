// Package bulk implements the four R-tree bulk-loading algorithms the
// paper compares — the packed Hilbert R-tree (H), the four-dimensional
// Hilbert R-tree (H4), the Top-down Greedy Split R-tree (TGS) and the
// PR-tree (PR) — over records already in memory.
//
// LoadSlice builds over permutations of the slice: nothing is written but
// tree pages, through rtree.Builder, and the slice is only read. Every
// facade load takes it. The paper's external-memory constructions, whose
// block I/Os its Figures 9-11 count, are package extmem's; they share this
// package's sort keys, TGS cut search, Hilbert keys and page writers, and
// H and H4 write the pages LoadSlice writes, as do TGS on inputs without
// (coordinate, id) ties and PR on inputs within the memory budget.
package bulk

import (
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// Options tunes the loaders. The zero value selects the paper's setup:
// 4 KB blocks with fanout 113, built serially.
type Options struct {
	// Fanout caps node entries; 0 means the block-size maximum (113 at
	// 4 KB).
	Fanout int
	// Parallelism bounds the worker pool of the in-memory builds (clamped
	// to GOMAXPROCS; 0 or 1 means serial). Every loader writes the same
	// pages at every setting; the knob only spreads the CPU work across
	// cores: in PR the kd recursion of every pseudo-PR-tree build
	// (pseudo.Build), in TGS the four sorts, and in PR, H and H4 the
	// gathering and encoding of the leaf pages. A build adds a four-byte
	// permutation entry a record, about 40 KB of peel scratch a worker at
	// fanout 113, and, from Parallelism 2 on, a batch of 64 page buffers
	// for the leaves. The external constructions (package extmem) are
	// serial and do not read it.
	Parallelism int
}

// hilbertBits is the Hilbert loaders' resolution per dimension: 2^16 cells
// a side, so a 4D key fills 64 bits.
const hilbertBits = 16

func (o Options) normalized(blockSize int) Options {
	if max := rtree.MaxFanout(blockSize); o.Fanout <= 0 || o.Fanout > max {
		o.Fanout = max
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	return o
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

// LoadSlice bulk-loads a tree over items with the chosen algorithm in
// memory onto the pager; items is only read.
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
