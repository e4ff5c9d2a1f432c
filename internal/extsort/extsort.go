// Package extsort implements the external multiway merge sort that every
// bulk-loading algorithm in the paper relies on: run formation with M
// records in main memory followed by (M/B)-way merge passes, for a total of
// O((N/B) log_{M/B}(N/B)) block I/Os. All reads and writes go through
// storage.ItemFile, so the sort's I/O cost is measured, not modeled.
//
// The pipeline is allocation-lean and optionally parallel. Run formation
// takes a list of keys: the input is scanned once, and each M-record chunk
// is sorted once per key — the key computed once per record, an LSD radix
// sort over 16-byte (key, position-in-chunk) records, the run written by
// gathering from the chunk — with per-worker buffers reused across runs.
// Merge passes drive a flat loser tree that moves encoded records (and,
// for run copies, whole blocks) without decode/encode round trips. With
// Config.Workers > 1 the (chunk, key) sorts and the independent merge
// groups of each pass run on a GOMAXPROCS-bounded worker pool. Run
// boundaries, output bytes, and the disk's read/write counters are
// identical at every worker count: the input scan stays sequential, runs
// are fixed M-record chunks, and each merge group's output depends only on
// its own inputs.
package extsort

import (
	"math"
	"sync"
	"sync/atomic"

	"prtree/internal/geom"
	"prtree/internal/parallel"
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
// the tail.
func AxisKey(axis int) KeyFunc {
	return func(it geom.Item) Key {
		return Key{Main: Float64Key(it.Rect.Coord(axis)), Tie: it.ID}
	}
}

// UintKey adapts a uint64-valued function (e.g. a Hilbert index) into a
// KeyFunc with id tie-break.
func UintKey(f func(geom.Item) uint64) KeyFunc {
	return func(it geom.Item) Key {
		return Key{Main: f(it), Tie: it.ID}
	}
}

// AxisKeys returns the four corner-transform orderings, AxisKey(0..3): the
// key list of the loaders that work on four sorted lists (PR, TGS).
func AxisKeys() []KeyFunc {
	return []KeyFunc{AxisKey(0), AxisKey(1), AxisKey(2), AxisKey(3)}
}

// Config controls the sort's memory budget and parallelism.
type Config struct {
	// MemoryItems is M: the number of records that fit in main memory.
	// Runs are formed with M records; merges use up to M/B-1 input streams.
	MemoryItems int
	// Workers bounds the sort's concurrency: at most Workers run-formation
	// or merge tasks in flight, further capped at GOMAXPROCS. Zero or one
	// means serial. Any value produces byte-identical output and identical
	// block-I/O counts. Run formation holds one chunk of M decoded records
	// (40 bytes each) plus one 32-byte-a-record sort arena; a parallel one
	// holds an arena per worker and enough chunks to keep the workers busy
	// while the next is read (Workers/keys, rounded up, plus one).
	Workers int
}

// Sort externally sorts in by key: SortKeys with one key.
func Sort(in *storage.ItemFile, key KeyFunc, cfg Config) *storage.ItemFile {
	return SortKeys(in, []KeyFunc{key}, cfg)[0]
}

// SortKeys externally sorts in once per key and returns, in the order of
// keys, new sealed files with the sorted records, on the store the input
// lives on — as are the intermediate runs, which are freed. Each output,
// its runs and their boundaries are those of a sort by that key alone; the
// input is scanned once for all of them. The input file is left intact.
// MemoryItems must allow at least three blocks (two inputs + one output)
// or SortKeys panics.
func SortKeys(in *storage.ItemFile, keys []KeyFunc, cfg Config) []*storage.ItemFile {
	disk := in.Backend()
	perBlock := storage.ItemsPerBlock(disk.BlockSize())
	m := cfg.MemoryItems
	if m < 3*perBlock {
		panic("extsort: memory budget below three blocks")
	}
	out := make([]*storage.ItemFile, len(keys))
	if in.Len() == 0 {
		for k := range out {
			out[k] = storage.NewItemFile(disk)
			out[k].Seal()
		}
		return out
	}
	workers := parallel.Bound(cfg.Workers)

	runs := formRuns(disk, in, keys, m, workers)
	fanIn := m/perBlock - 1
	if fanIn < 2 {
		fanIn = 2
	}
	// Every key has the same number of runs, so the keys go through the
	// merge passes together, their groups sharing one pool.
	for nRuns := len(runs[0]); nRuns > 1; {
		groups := (nRuns + fanIn - 1) / fanIn
		next := make([][]*storage.ItemFile, len(keys))
		for k := range next {
			next[k] = make([]*storage.ItemFile, groups)
		}
		// Merge groups are independent: group g of key k always merges the
		// same slice of runs into next[k][g], so output order and per-group
		// bytes match the serial pass exactly.
		parallel.Run(workers, len(keys)*groups, func(i int) {
			k, g := i/groups, i%groups
			lo := g * fanIn
			hi := min(lo+fanIn, nRuns)
			next[k][g] = mergeRuns(disk, runs[k][lo:hi], keys[k])
		})
		runs, nRuns = next, groups
	}
	for k := range out {
		out[k] = runs[k][0]
	}
	return out
}

// runChunk is one M-record slice of the input, tagged with its position so
// parallel workers can deposit the finished runs at the right index, and
// counting the keys it has yet to be sorted by.
type runChunk struct {
	idx     int
	items   []geom.Item
	pending atomic.Int32
}

// runTask is one unit of run formation: sort a chunk by one of the keys.
type runTask struct {
	chunk *runChunk
	key   int
}

// formRuns cuts the input into fixed chunks of m records, sorts each by
// every key, and writes each as one run per key: runs[k][i] is chunk i
// sorted by keys[k]. The input scan is a single sequential reader in every
// mode, so each input block is read exactly once whatever the number of
// keys; only the sorts and the run writes fan out to workers.
func formRuns(disk storage.Backend, in *storage.ItemFile, keys []KeyFunc, m, workers int) [][]*storage.ItemFile {
	nRuns := (in.Len() + m - 1) / m
	runs := make([][]*storage.ItemFile, len(keys))
	for k := range runs {
		runs[k] = make([]*storage.ItemFile, nRuns)
	}
	if tasks := nRuns * len(keys); workers > tasks {
		workers = tasks // never size buffers or goroutines beyond the work
	}
	chunkCap := min(m, in.Len())
	r := in.Reader()
	if workers <= 1 {
		s := newRunSorter(chunkCap)
		buf := make([]geom.Item, 0, chunkCap)
		for idx := 0; idx < nRuns; idx++ {
			buf = fillChunk(r, buf[:0], m)
			for k, key := range keys {
				runs[k][idx] = s.writeRun(disk, buf, key)
			}
		}
		return runs
	}

	// Pipeline: the caller's goroutine reads chunks in order and queues one
	// task per key; workers sort and write. A chunk returns to the reader
	// when its last key is done. There are as many chunks as keep every
	// worker busy (workers/keys, rounded up) plus the one being read.
	nChunks := min((workers+len(keys)-1)/len(keys)+1, nRuns)
	spare := make(chan *runChunk, nChunks) // holds every chunk: a release never blocks
	for i := 0; i < nChunks; i++ {
		spare <- &runChunk{items: make([]geom.Item, 0, chunkCap)}
	}
	tasks := make(chan runTask, workers) // a task ready for each worker the moment it is free
	var (
		wg     sync.WaitGroup
		failed atomic.Bool
		pmu    sync.Mutex
		pval   any
	)
	// form runs one task. Whatever happens the chunk is released, or the
	// reader would starve on <-spare and a panic would turn into a deadlock
	// instead of propagating; once one task has failed the rest only release.
	form := func(s *runSorter, t runTask) {
		defer func() {
			if r := recover(); r != nil {
				failed.Store(true)
				pmu.Lock()
				if pval == nil {
					pval = r
				}
				pmu.Unlock()
			}
			if t.chunk.pending.Add(-1) == 0 {
				spare <- t.chunk
			}
		}()
		if !failed.Load() {
			runs[t.key][t.chunk.idx] = s.writeRun(disk, t.chunk.items, keys[t.key])
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var s *runSorter // arena allocated on first claimed task
			for t := range tasks {
				if s == nil {
					s = newRunSorter(chunkCap)
				}
				form(s, t)
			}
		}()
	}
	for idx := 0; idx < nRuns && !failed.Load(); idx++ {
		c := <-spare
		c.idx = idx
		c.items = fillChunk(r, c.items[:0], m)
		c.pending.Store(int32(len(keys)))
		for k := range keys {
			tasks <- runTask{chunk: c, key: k}
		}
	}
	close(tasks)
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

// Orders returns, for each key, the positions of items in the order Sort
// writes them by that key: by key, equal keys in input order. It is run
// formation's in-memory sort over the whole slice, the keys sorted on up
// to workers goroutines (bounded by GOMAXPROCS), each with an arena of 32
// bytes a record that it reuses for every key it sorts; each result adds
// four bytes a record.
func Orders(items []geom.Item, keys []KeyFunc, workers int) [][]int32 {
	w := min(parallel.Bound(workers), len(keys))
	arenas := make(chan *runSorter, w)
	for range w {
		arenas <- newRunSorter(len(items))
	}
	out := make([][]int32, len(keys))
	parallel.Run(w, len(keys), func(k int) {
		s := <-arenas
		recs := s.sort(items, keys[k])
		perm := make([]int32, len(recs))
		for i, r := range recs {
			perm[i] = int32(r.pos)
		}
		out[k] = perm
		arenas <- s
	})
	return out
}

// runSorter is one worker's scratch arena: the two record slices are
// reused for every run the worker forms, so steady-state run formation
// allocates nothing beyond the run files themselves.
type runSorter struct {
	recs    []sortRec
	scratch []sortRec
}

func newRunSorter(m int) *runSorter {
	return &runSorter{recs: make([]sortRec, m), scratch: make([]sortRec, m)}
}

// sort returns the positions of items in key order, each key computed
// once. The result aliases the arena and is valid until the next call.
func (s *runSorter) sort(items []geom.Item, key KeyFunc) []sortRec {
	recs := s.recs[:len(items)]
	for i := range items {
		k := key(items[i])
		recs[i] = sortRec{main: k.Main, tie: k.Tie, pos: uint32(i)}
	}
	return sortRecs(recs, s.scratch)
}

func (s *runSorter) writeRun(disk storage.Backend, items []geom.Item, key KeyFunc) *storage.ItemFile {
	sorted := s.sort(items, key)
	f := storage.NewItemFile(disk)
	for i := range sorted {
		f.Append(items[sorted[i].pos])
	}
	f.Seal()
	return f
}
