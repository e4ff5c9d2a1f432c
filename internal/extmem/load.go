// Package extmem is the external-memory model of the paper's bulk loads:
// a file of records on a store (ItemFile), the external multiway merge
// sort every loader relies on (SortKeys), the grid construction of the
// pseudo-PR-tree (BuildPseudo, Section 2.1) and the four loaders built on
// them (Load). Every pass streams whole blocks through a storage.Backend,
// so a load's block I/O — what the paper's Figures 9-11 plot — is counted
// on the store, not modeled. Everything runs serially: the block-I/O
// counts are what the package is for, and they are the same at any
// parallelism.
//
// A load touches two stores. Finished tree pages go to the pager's
// backend, through rtree.Builder and nothing else. Everything temporary —
// sort runs, sorted lists, grid partitions, the files between stages —
// goes to the store the input file lives on (in.Backend()). When that is
// the pager's own backend (the paper's set-up, and prbench's fig9–11) one
// device sees all the I/O.
//
// The library itself builds in memory (bulk.LoadSlice) and does not link
// this package; the paper's experiments and the tests that hold the two
// constructions to the same pages do. They share package bulk's sort keys,
// TGS cut search, Hilbert keys and page writers, so H and H4 write the
// pages bulk.LoadSlice writes, TGS does on inputs without (coordinate, id)
// ties, and PR does while the input fits in MemoryItems.
package extmem

import (
	"prtree/internal/bulk"
	"prtree/internal/geom"
	"prtree/internal/pseudo"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// Options tunes the external loaders. The zero value selects the paper's
// setup: 4 KB blocks with fanout 113 and DefaultMemoryItems.
type Options struct {
	// Fanout caps node entries; 0 means the block-size maximum (113 at
	// 4 KB).
	Fanout int
	// MemoryItems is M, the number of records that fit in main memory (0
	// means DefaultMemoryItems, at least four blocks). A sort's run
	// formation holds one chunk of M decoded records (40 bytes each), its
	// sort arena of 32 bytes a record and the chunk's orders, four bytes a
	// record a key.
	MemoryItems int
}

// DefaultMemoryItems corresponds to the paper's 64 MB of TPIE memory
// at 36 bytes per record, scaled down to keep laptop experiments honest:
// 2^16 records (~2.4 MB) so that external rounds actually happen at the
// dataset sizes the harness uses.
const DefaultMemoryItems = 1 << 16

func (o Options) normalized(blockSize int) Options {
	if limit := rtree.MaxFanout(blockSize); o.Fanout <= 0 || o.Fanout > limit {
		o.Fanout = limit
	}
	if o.MemoryItems <= 0 {
		o.MemoryItems = DefaultMemoryItems
	}
	o.MemoryItems = max(o.MemoryItems, 4*storage.ItemsPerBlock(blockSize))
	return o
}

// Load bulk-loads a tree with the chosen algorithm onto the pager,
// consuming in; temporaries go to in's store, and every one is freed.
func Load(l bulk.Loader, pager *storage.Pager, in *ItemFile, opt Options) *rtree.Tree {
	switch l {
	case bulk.LoaderHilbert, bulk.LoaderHilbert4D:
		return hilbertLoad(l, pager, in, opt)
	case bulk.LoaderTGS:
		return tgsLoad(pager, in, opt)
	case bulk.LoaderPR:
		return prLoad(pager, in, opt)
	default:
		panic("extmem: unknown loader")
	}
}

// prLoad bulk-loads a Priority R-tree (Section 2.2 of the paper) in the
// stages bulk.PRTreeSlice builds, each stage's pseudo-PR-tree by the
// external grid algorithm (BuildPseudo): O((n/B) log_{M/B}(n/B)) I/Os on a
// stage of n rectangles, so the whole bulk-load costs O((N/B)
// log_{M/B}(N/B)) I/Os — about 2.5x the Hilbert loaders in the paper's
// Figure 9, 2.8x measured here when one external round suffices
// (TestBuildIOFigure9), and far below TGS.
func prLoad(pager *storage.Pager, in *ItemFile, opt Options) *rtree.Tree {
	opt = opt.normalized(pager.Backend().BlockSize())
	b := rtree.NewBuilder(pager, rtree.Config{Fanout: opt.Fanout})
	if in.Len() == 0 {
		in.Free()
		return b.FinishEmpty()
	}
	disk := in.Backend()
	cur := in
	for level := 0; ; level++ {
		next := NewItemFile(disk)
		var last rtree.ChildEntry
		BuildPseudo(cur, opt.Fanout, opt.MemoryItems, func(lg pseudo.LeafGroup) {
			last = b.WriteGroup(level, lg.Items)
			next.Append(geom.Item{Rect: last.Rect, ID: uint32(last.Page)})
		})
		next.Seal()
		if next.Len() == 1 {
			next.Free()
			return b.Finish(last, level+1)
		}
		if next.Len() <= opt.Fanout {
			entries := next.ReadAll()
			next.Free()
			return b.Finish(b.WriteGroup(level+1, entries), level+2)
		}
		cur = next
	}
}

// hilbertLoad bulk-loads the packed Hilbert R-tree bulk.LoadSlice builds
// for l, H or H4: one scan for the world box, one external sort, one
// packing pass — O((N/B) log_{M/B}(N/B)) I/Os, the cheapest loaders in
// Figure 9.
func hilbertLoad(l bulk.Loader, pager *storage.Pager, in *ItemFile, opt Options) *rtree.Tree {
	opt = opt.normalized(pager.Backend().BlockSize())
	b := rtree.NewBuilder(pager, rtree.Config{Fanout: opt.Fanout})
	if in.Len() == 0 {
		in.Free()
		return b.FinishEmpty()
	}
	sorted := Sort(in, bulk.UintKey(bulk.HilbertKey(l, worldOf(in))), opt.MemoryItems)
	in.Free()
	return b.FinishPacked(packSortedLeaves(b, sorted))
}

// worldOf scans a file for its bounding box (one linear pass).
func worldOf(f *ItemFile) geom.Rect {
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
func packSortedLeaves(b *rtree.Builder, sorted *ItemFile) []rtree.ChildEntry {
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

// tgsLoad bulk-loads the Top-down Greedy Split R-tree (bulk.BuildTGS) over
// four sorted files on in's store. The four orderings come from one scan
// of the input.
//
// The lists are sorted by (coordinate, id), and a partition sends left the
// records that order before the cut's first record on the cut's axis. So
// no two records may tie on a coordinate and their id: a run of tied
// records that spans a cut goes wholly right, and the nodes come out
// malformed. Unique ids guarantee it; bulk.LoadSlice's TGS, which cuts at
// positions, has no such precondition.
func tgsLoad(pager *storage.Pager, in *ItemFile, opt Options) *rtree.Tree {
	opt = opt.normalized(pager.Backend().BlockSize())
	b := rtree.NewBuilder(pager, rtree.Config{Fanout: opt.Fanout})
	if in.Len() == 0 {
		in.Free()
		return b.FinishEmpty()
	}
	lists := tgsFiles(SortKeys(in, bulk.AxisKeys(), opt.MemoryItems))
	in.Free()
	return bulk.BuildTGS(b, &lists)
}

// tgsFiles is a set as four sorted files on the store of the input's.
type tgsFiles [4]*ItemFile

func (f *tgsFiles) Len() int { return f[0].Len() }

func (f *tgsFiles) Each(d int, fn func(geom.Item)) {
	r := f[d].Reader()
	for it, ok := r.Next(); ok; it, ok = r.Next() {
		fn(it)
	}
}

// Split rewrites the four lists into two sets: records ordering strictly
// before first on axis go left. Each output list stays sorted because the
// scan preserves order.
func (f *tgsFiles) Split(axis, _ int, first geom.Item) (bulk.TGSLists, bulk.TGSLists) {
	key := bulk.AxisKey(axis)
	cut := key(first)
	var left, right tgsFiles
	for d := 0; d < 4; d++ {
		disk := f[d].Backend()
		left[d], right[d] = NewItemFile(disk), NewItemFile(disk)
		f.Each(d, func(it geom.Item) {
			if key(it).Less(cut) {
				left[d].Append(it)
			} else {
				right[d].Append(it)
			}
		})
		left[d].Seal()
		right[d].Seal()
		f[d].Free()
	}
	return &left, &right
}

func (f *tgsFiles) Leaf(dst []geom.Item) []geom.Item {
	dst = append(dst, f[0].ReadAll()...)
	for d := 0; d < 4; d++ {
		f[d].Free()
	}
	return dst
}
