// Package extsort implements the external multiway merge sort that every
// bulk-loading algorithm in the paper relies on: run formation with M
// records in main memory followed by (M/B)-way merge passes, for a total of
// O((N/B) log_{M/B}(N/B)) block I/Os. All reads and writes go through
// storage.ItemFile, so the sort's I/O cost is measured, not modeled.
//
// The pipeline is allocation-lean and optionally parallel. Run formation
// precomputes every record's Key once, sorts (key, record) pairs with an
// LSD radix sort, and reuses per-worker buffers across runs; merge passes
// drive a flat loser tree that moves encoded records (and, for run copies,
// whole blocks) without decode/encode round trips. With Config.Workers > 1
// run formation and the independent merge groups of each pass run on a
// GOMAXPROCS-bounded worker pool. Run boundaries, output bytes, and the
// disk's read/write counters are identical at every worker count: the input
// scan stays sequential, runs are fixed M-record chunks, and each merge
// group's output depends only on its own inputs.
package extsort

import (
	"math"
	"sync"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// Key is a sort key with a total order: Main first, then Tie (conventionally
// the rectangle id, which makes every ordering strict even with duplicate
// coordinates — the paper assumes distinct coordinates; the tie-break
// removes that assumption).
type Key struct {
	Main uint64
	Tie  uint32
}

// Less reports whether k orders strictly before o.
func (k Key) Less(o Key) bool {
	if k.Main != o.Main {
		return k.Main < o.Main
	}
	return k.Tie < o.Tie
}

// KeyFunc extracts the sort key of an item. It must be pure and safe to
// call from multiple goroutines (every provided KeyFunc is).
type KeyFunc func(geom.Item) Key

// Float64Key maps a float64 to a uint64 such that the uint64 order matches
// the float64 order (for all non-NaN values, with -0 == +0 ordered by bits).
// This is the classic sign-flip trick.
func Float64Key(v float64) uint64 {
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | (1 << 63)
}

// AxisKey returns a KeyFunc ordering items by the axis-th corner-transform
// coordinate (0=xmin, 1=ymin, 2=xmax, 3=ymax), ties broken by id. Axes 2
// and 3 sort ascending; callers wanting "maximal xmax first" iterate from
// the tail or use ReverseAxisKey.
func AxisKey(axis int) KeyFunc {
	return func(it geom.Item) Key {
		return Key{Main: Float64Key(it.Rect.Coord(axis)), Tie: it.ID}
	}
}

// ReverseAxisKey orders items by descending axis coordinate.
func ReverseAxisKey(axis int) KeyFunc {
	return func(it geom.Item) Key {
		return Key{Main: ^Float64Key(it.Rect.Coord(axis)), Tie: it.ID}
	}
}

// UintKey adapts a uint64-valued function (e.g. a Hilbert index) into a
// KeyFunc with id tie-break.
func UintKey(f func(geom.Item) uint64) KeyFunc {
	return func(it geom.Item) Key {
		return Key{Main: f(it), Tie: it.ID}
	}
}

// Config controls the sort's memory budget and parallelism.
type Config struct {
	// MemoryItems is M: the number of records that fit in main memory.
	// Runs are formed with M records; merges use up to M/B-1 input streams.
	MemoryItems int
	// Workers bounds the sort's concurrency: at most Workers run-formation
	// or merge tasks in flight, further capped at GOMAXPROCS. Zero or one
	// means serial. Any value produces byte-identical output and identical
	// block-I/O counts; parallel runs temporarily hold up to about
	// Workers+1 chunks of M records in memory instead of one.
	Workers int
}

// Sort externally sorts in by key and returns a new sealed file with the
// sorted records, on the store the input lives on — as are the
// intermediate runs, which are freed. The input file is left intact.
// MemoryItems must allow at least three blocks (two inputs + one output)
// or Sort panics.
func Sort(in *storage.ItemFile, key KeyFunc, cfg Config) *storage.ItemFile {
	disk := in.Backend()
	perBlock := storage.ItemsPerBlock(disk.BlockSize())
	m := cfg.MemoryItems
	if m < 3*perBlock {
		panic("extsort: memory budget below three blocks")
	}
	if in.Len() == 0 {
		out := storage.NewItemFile(disk)
		out.Seal()
		return out
	}
	workers := boundWorkers(cfg.Workers)

	runs := formRuns(disk, in, key, m, workers)
	fanIn := m/perBlock - 1
	if fanIn < 2 {
		fanIn = 2
	}
	for len(runs) > 1 {
		groups := (len(runs) + fanIn - 1) / fanIn
		next := make([]*storage.ItemFile, groups)
		// Merge groups are independent: group g always merges the same
		// slice of runs into next[g], so output order and per-group bytes
		// match the serial pass exactly.
		Parallel(workers, groups, func(g int) {
			lo := g * fanIn
			hi := lo + fanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			next[g] = mergeRuns(disk, runs[lo:hi], key)
		})
		runs = next
	}
	return runs[0]
}

// SortItems sorts an in-memory slice by key (used when N <= M, where the
// paper switches to internal-memory construction). The slice is sorted in
// place and also returned. Each key is computed exactly once.
func SortItems(items []geom.Item, key KeyFunc) []geom.Item {
	if len(items) < 2 {
		return items
	}
	keyed := make([]keyedItem, len(items))
	for i, it := range items {
		keyed[i] = keyedItem{key: key(it), item: it}
	}
	scratch := make([]keyedItem, len(items))
	sorted := sortKeyed(keyed, scratch)
	for i := range sorted {
		items[i] = sorted[i].item
	}
	return items
}

// runChunk is one M-record slice of the input, tagged with its position so
// parallel workers can deposit the finished run at the right index.
type runChunk struct {
	idx   int
	items []geom.Item
}

// formRuns cuts the input into fixed chunks of m records, sorts each, and
// writes each as a run. The input scan is a single sequential reader in
// every mode, so each input block is read exactly once; only the sort and
// the run writes fan out to workers.
func formRuns(disk storage.Backend, in *storage.ItemFile, key KeyFunc, m, workers int) []*storage.ItemFile {
	nRuns := (in.Len() + m - 1) / m
	runs := make([]*storage.ItemFile, nRuns)
	if workers > nRuns {
		workers = nRuns // never size buffers or goroutines beyond the work
	}
	if workers <= 1 || nRuns <= 1 {
		s := newRunSorter(m)
		r := in.Reader()
		buf := make([]geom.Item, 0, min(m, in.Len()))
		for idx := 0; idx < nRuns; idx++ {
			buf = fillChunk(r, buf[:0], m)
			runs[idx] = s.writeRun(disk, buf, key)
		}
		return runs
	}

	// Pipeline: the caller's goroutine reads chunks in order while workers
	// sort and write them. Chunk buffers are recycled through a channel so
	// steady-state memory stays at about (workers+1) chunks.
	chunks := make(chan runChunk, workers)
	spare := make(chan []geom.Item, workers+1)
	for i := 0; i < workers+1; i++ {
		spare <- make([]geom.Item, 0, m)
	}
	var wg sync.WaitGroup
	var pmu sync.Mutex
	var pval any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pmu.Lock()
					if pval == nil {
						pval = r
					}
					pmu.Unlock()
					// Drain so the reader never blocks — recycling each
					// drained buffer, or the reader would eventually
					// starve on <-spare and the panic would turn into a
					// deadlock instead of propagating.
					for c := range chunks {
						select {
						case spare <- c.items[:0]:
						default:
						}
					}
				}
			}()
			var s *runSorter // arena allocated on first claimed chunk
			for c := range chunks {
				if s == nil {
					s = newRunSorter(m)
				}
				runs[c.idx] = s.writeRun(disk, c.items, key)
				select {
				case spare <- c.items[:0]:
				default:
				}
			}
		}()
	}
	r := in.Reader()
	for idx := 0; idx < nRuns; idx++ {
		buf := fillChunk(r, (<-spare)[:0], m)
		chunks <- runChunk{idx: idx, items: buf}
	}
	close(chunks)
	wg.Wait()
	if pval != nil {
		panic(pval)
	}
	return runs
}

func fillChunk(r *storage.ItemReader, buf []geom.Item, m int) []geom.Item {
	for len(buf) < m {
		it, ok := r.Next()
		if !ok {
			break
		}
		buf = append(buf, it)
	}
	return buf
}

// runSorter is one worker's scratch arena: the keyed and scratch slices
// are reused for every run the worker forms, so steady-state run formation
// allocates nothing beyond the run files themselves.
type runSorter struct {
	keyed   []keyedItem
	scratch []keyedItem
}

func newRunSorter(m int) *runSorter {
	return &runSorter{
		keyed:   make([]keyedItem, 0, m),
		scratch: make([]keyedItem, m),
	}
}

func (s *runSorter) writeRun(disk storage.Backend, items []geom.Item, key KeyFunc) *storage.ItemFile {
	keyed := s.keyed[:0]
	for _, it := range items {
		keyed = append(keyed, keyedItem{key: key(it), item: it})
	}
	sorted := sortKeyed(keyed, s.scratch)
	f := storage.NewItemFile(disk)
	for i := range sorted {
		f.Append(sorted[i].item)
	}
	f.Seal()
	return f
}
