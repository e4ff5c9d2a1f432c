// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment; run `go test -bench=. -benchmem`), plus
// micro-benchmarks of the core operations. Custom metrics report the
// quantity each paper exhibit plots: "blockIO/op" for the bulk-loading
// figures (9-11), "pct-of-TB" for the query figures (12-15), and
// "leaf%%" for Table 1 / Theorem 3.
//
// Sizes are benchmark-friendly (tens of thousands of rectangles); the
// full-scale reproduction is cmd/prbench, whose output is recorded in
// EXPERIMENTS.md.
package prtree

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"prtree/internal/bulk"
	"prtree/internal/dataset"
	"prtree/internal/extmem"
	"prtree/internal/geom"
	"prtree/internal/hilbert"
	"prtree/internal/parallel"
	"prtree/internal/pseudo"
	"prtree/internal/rtree"
	"prtree/internal/storage"
	"prtree/internal/workload"
)

const benchMem = 1 << 14 // bulk-loading memory budget (records)

var benchLoaders = []bulk.Loader{bulk.LoaderHilbert, bulk.LoaderHilbert4D, bulk.LoaderPR, bulk.LoaderTGS}

// benchBuild bulk-loads items with l's external construction once per
// iteration, reporting block I/O.
func benchBuild(b *testing.B, l bulk.Loader, items []geom.Item) {
	b.Helper()
	var lastIO uint64
	for i := 0; i < b.N; i++ {
		disk := storage.NewDisk(storage.DefaultBlockSize)
		pager := storage.NewPager(disk, -1)
		in := extmem.NewItemFileFrom(disk, items)
		disk.ResetStats()
		tree := extmem.Load(l, pager, in, extmem.Options{MemoryItems: benchMem})
		lastIO = disk.Stats().Total()
		if tree.Len() != len(items) {
			b.Fatalf("lost items: %d != %d", tree.Len(), len(items))
		}
	}
	b.ReportMetric(float64(lastIO), "blockIO/op")
}

// benchQueries builds once, then measures query cost per iteration.
func benchQueries(b *testing.B, l bulk.Loader, items []geom.Item, queries []geom.Rect) {
	b.Helper()
	disk := storage.NewDisk(storage.DefaultBlockSize)
	pager := storage.NewPager(disk, -1)
	in := extmem.NewItemFileFrom(disk, items)
	tree := extmem.Load(l, pager, in, extmem.Options{MemoryItems: benchMem})
	totalLeafNodes := 0
	tree.Walk(func(_ storage.PageID, _ int, isLeaf bool, _ []geom.Item) {
		if isLeaf {
			totalLeafNodes++
		}
	})
	b.ReportAllocs() // the zero-copy read path keeps cache-hit queries at 0 allocs/op
	b.ResetTimer()
	var leaves, results int
	for i := 0; i < b.N; i++ {
		leaves, results = 0, 0
		for _, q := range queries {
			st, _ := tree.RunWindow(q, false, nil, rtree.RunOptions{})
			leaves += st.LeavesVisited
			results += st.Results
		}
	}
	if results > 0 {
		pct := 100 * float64(leaves) / (float64(results) / float64(tree.Config().Fanout))
		b.ReportMetric(pct, "pct-of-TB")
	}
	b.ReportMetric(100*float64(leaves)/float64(len(queries))/float64(totalLeafNodes), "leaf%")
}

// --- Figure 9: bulk-loading cost on TIGER-like data ---

func BenchmarkFig9BulkLoadEastern(b *testing.B) {
	items := dataset.Eastern(40000, 1)
	for _, l := range benchLoaders {
		b.Run(l.String(), func(b *testing.B) { benchBuild(b, l, items) })
	}
}

// --- Figure 10: bulk-loading cost vs dataset size ---

func BenchmarkFig10Scaling(b *testing.B) {
	regions := dataset.EasternRegions(40000, 2)
	for _, items := range regions {
		b.Run(fmt.Sprintf("PR/n=%d", len(items)), func(b *testing.B) {
			benchBuild(b, bulk.LoaderPR, items)
		})
	}
}

// --- Figure 11: TGS bulk-loading cost across distributions ---

func BenchmarkFig11TGS(b *testing.B) {
	for _, ms := range []float64{0.002, 0.02, 0.2} {
		items := dataset.Size(20000, ms, 3)
		b.Run(fmt.Sprintf("size=%g", ms), func(b *testing.B) {
			benchBuild(b, bulk.LoaderTGS, items)
		})
	}
	for _, a := range []float64{10, 1000, 100000} {
		items := dataset.Aspect(20000, a, 4)
		b.Run(fmt.Sprintf("aspect=%g", a), func(b *testing.B) {
			benchBuild(b, bulk.LoaderTGS, items)
		})
	}
}

// --- Figures 12/13: query cost vs query size on TIGER-like data ---

func BenchmarkFig12QueryWestern(b *testing.B) {
	items := dataset.Western(40000, 5)
	world := geom.ItemsMBR(items)
	queries := workload.Squares(world, 0.01, 50, 6)
	for _, l := range benchLoaders {
		b.Run(l.String(), func(b *testing.B) { benchQueries(b, l, items, queries) })
	}
}

func BenchmarkFig13QueryEastern(b *testing.B) {
	items := dataset.Eastern(40000, 7)
	world := geom.ItemsMBR(items)
	queries := workload.Squares(world, 0.01, 50, 8)
	for _, l := range benchLoaders {
		b.Run(l.String(), func(b *testing.B) { benchQueries(b, l, items, queries) })
	}
}

// --- Figure 14: query cost vs dataset size ---

func BenchmarkFig14QueryScaling(b *testing.B) {
	regions := dataset.EasternRegions(40000, 9)
	for _, items := range regions {
		world := geom.ItemsMBR(items)
		queries := workload.Squares(world, 0.01, 50, 10)
		b.Run(fmt.Sprintf("PR/n=%d", len(items)), func(b *testing.B) {
			benchQueries(b, bulk.LoaderPR, items, queries)
		})
	}
}

// --- Figure 15: query cost on the synthetic families ---

func BenchmarkFig15Size(b *testing.B) {
	items := dataset.Size(40000, 0.2, 11)
	queries := workload.Squares(geom.NewRect(0, 0, 1, 1), 0.01, 50, 12)
	for _, l := range benchLoaders {
		b.Run(l.String(), func(b *testing.B) { benchQueries(b, l, items, queries) })
	}
}

func BenchmarkFig15Aspect(b *testing.B) {
	items := dataset.Aspect(40000, 10000, 13)
	queries := workload.Squares(geom.NewRect(0, 0, 1, 1), 0.01, 50, 14)
	for _, l := range benchLoaders {
		b.Run(l.String(), func(b *testing.B) { benchQueries(b, l, items, queries) })
	}
}

func BenchmarkFig15Skewed(b *testing.B) {
	items := dataset.Skewed(40000, 7, 15)
	queries := workload.SkewedSquares(0.01, 7, 50, 16)
	for _, l := range benchLoaders {
		b.Run(l.String(), func(b *testing.B) { benchQueries(b, l, items, queries) })
	}
}

// --- Table 1: CLUSTER with skinny probes ---

func BenchmarkTable1Cluster(b *testing.B) {
	items := dataset.Cluster(50000, 17)
	queries := make([]geom.Rect, 20)
	for i := range queries {
		queries[i] = dataset.ClusterProbe(int64(18 + i))
	}
	for _, l := range benchLoaders {
		b.Run(l.String(), func(b *testing.B) { benchQueries(b, l, items, queries) })
	}
}

// --- Theorem 3: worst-case grid, zero-output line queries ---

func BenchmarkTheorem3(b *testing.B) {
	items := dataset.WorstCase(50000, 113)
	queries := make([]geom.Rect, 20)
	for i := range queries {
		queries[i] = dataset.WorstCaseProbe(50000, 113, i)
	}
	for _, l := range benchLoaders {
		b.Run(l.String(), func(b *testing.B) { benchQueries(b, l, items, queries) })
	}
}

// --- Core micro-benchmarks ---

// BenchmarkPseudoPRBuildInMemory times the in-memory build every load
// bottoms out in, on the uniform set, on one served shard's worth of the
// repository benchmark's dataset and on all of it (the embedded load),
// serial and with the kd recursion on two workers (clamped to GOMAXPROCS).
func BenchmarkPseudoPRBuildInMemory(b *testing.B) {
	for _, ds := range []struct {
		name  string
		items []geom.Item
	}{
		{"uniform50k", dataset.Uniform(50000, 0.001, 19)},
		{"western54k", dataset.Western(75000, 2004)},
		{"western216k", dataset.Western(300000, 2004)}, // the embedded benchmark's load
	} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", ds.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					t := pseudo.Build(ds.items, 113, true, w)
					if t.N != len(ds.items) {
						b.Fatal("bad build")
					}
				}
			})
		}
	}
}

func BenchmarkPRBulkLoadExternal(b *testing.B) {
	b.Run("uniform50k", func(b *testing.B) {
		benchBuild(b, bulk.LoaderPR, dataset.Uniform(50000, 0.001, 20))
	})
	// The benchmark's embedded set-up: a file-backed index, serial. At
	// M = 65536 it is the paper's external load, which the facade does not
	// run: extmem.Load onto the index file's pager, its input and
	// temporaries on a simulated disk of their own. The default is the
	// facade's BulkLoad, which builds in memory and writes tree pages only.
	// blockIO/op is the index file's I/O plus the temporaries' disk's;
	// B/op is the load's allocation, the sort arenas included. The default
	// load's budget is TestPRBulkLoadBudget's.
	items := dataset.Western(300000, 2004)
	b.Run("western216k/M=65536", func(b *testing.B) {
		benchFileLoad(b, items, func(tree *Tree) (uint64, error) {
			tmp := storage.NewDisk(storage.DefaultBlockSize)
			err := tree.txn(func() {
				in := extmem.NewItemFileFrom(tmp, items)
				tree.inner = extmem.Load(PR, tree.pager, in, extmem.Options{MemoryItems: 65536})
			}, tree.saveMeta)
			return tmp.Stats().Total(), err
		})
	})
	b.Run("western216k/default", func(b *testing.B) {
		benchFileLoad(b, items, func(tree *Tree) (uint64, error) { return 0, tree.BulkLoad(PR, items) })
	})
}

// TestPRBulkLoadBudget: the facade's default BulkLoad of the benchmark's
// embedded set-up — Western 300,000 (216,000 rectangles) onto a fresh
// file-backed index, serial — costs at most 2,000 block I/Os and allocates
// at most 2 MB. It builds in memory and writes tree pages only, one block
// write a page.
func TestPRBulkLoadBudget(t *testing.T) {
	items := dataset.Western(300000, 2004)
	tree, err := Create(filepath.Join(t.TempDir(), "w.pr"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = tree.BulkLoad(PR, items)
	runtime.ReadMemStats(&m1)
	if err != nil || tree.Len() != len(items) {
		t.Fatalf("loaded %d of %d items: %v", tree.Len(), len(items), err)
	}
	if io, alloc := tree.IOStats().Total(), m1.TotalAlloc-m0.TotalAlloc; io > 2000 || alloc > 2<<20 {
		t.Fatalf("a default load costs %d block I/Os and %d bytes allocated; budget 2,000 and 2 MB", io, alloc)
	}
}

// benchFileLoad creates a file-backed index and loads items into it with
// load once per iteration, and reports the last load's block I/O — the
// index file's plus the block I/O load reports it did elsewhere.
func benchFileLoad(b *testing.B, items []Item, load func(*Tree) (uint64, error)) {
	b.ReportAllocs()
	var io uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tree, err := Create(filepath.Join(b.TempDir(), fmt.Sprintf("w%d.pr", i)), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		elsewhere, err := load(tree)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		io = tree.IOStats().Total() + elsewhere
		if tree.Len() != len(items) {
			b.Fatalf("lost items: %d != %d", tree.Len(), len(items))
		}
		if err := tree.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(io), "blockIO/op")
}

// BenchmarkConcurrentQueries measures window-query throughput, one query
// per goroutine, on the Fig12 workload (PR-loaded Western data, 1%
// squares, internal nodes pinned on a capacity-0 pager so every leaf visit
// is a counted disk read) at increasing worker counts. Besides wall time
// it reports queries/sec and blockIO/op, and FAILS if any parallel run's
// aggregate block-I/O deviates from the serial run's — the invariant the
// pager's miss path, filled under the pager's lock, guarantees.
func BenchmarkConcurrentQueries(b *testing.B) {
	// Let parallel.Run fan out even when cores are scarce; on a multi-core
	// machine this is a no-op beyond 8 and queries/sec scales with cores.
	if runtime.GOMAXPROCS(0) < 8 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	}
	items := dataset.Western(60000, 5)
	world := geom.ItemsMBR(items)
	disk := storage.NewDisk(storage.DefaultBlockSize)
	pager := storage.NewPager(disk, 0) // leaf reads always hit the disk, as in the paper's setup
	tree := bulk.LoadSlice(bulk.LoaderPR, pager, items, bulk.Options{})
	queries := workload.Squares(world, 0.01, 400, 6)
	tree.PinInternal()
	var serialIO uint64
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var lastIO uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				disk.ResetStats()
				parallel.Run(w, len(queries), func(q int) { tree.RunWindow(queries[q], false, nil, rtree.RunOptions{}) })
				lastIO = disk.Stats().Total()
			}
			b.StopTimer()
			b.ReportMetric(float64(lastIO), "blockIO/op")
			b.ReportMetric(float64(len(queries))*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
			if w == 1 {
				serialIO = lastIO
			} else if serialIO != 0 && lastIO != serialIO {
				// serialIO == 0 means the workers=1 sub-benchmark was
				// filtered out, so there is no baseline to compare against.
				b.Fatalf("workers=%d aggregate blockIO %d != serial %d", w, lastIO, serialIO)
			}
		})
	}
}

func BenchmarkWindowQueryPR(b *testing.B) {
	items := dataset.Uniform(100000, 0.001, 21)
	disk := storage.NewDisk(storage.DefaultBlockSize)
	tree := bulk.LoadSlice(bulk.LoaderPR, storage.NewPager(disk, -1), items, bulk.Options{})
	queries := workload.Squares(geom.NewRect(0, 0, 1, 1), 0.001, 100, 22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _ := tree.RunWindow(queries[i%len(queries)], false, nil, rtree.RunOptions{})
		if st.Results < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkLogMethodInsert(b *testing.B) {
	d := NewDynamic(nil)
	items := dataset.Uniform(200000, 0.001, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustInsert(b, d, Item{Rect: items[i%len(items)].Rect, ID: uint32(i)})
	}
}

// BenchmarkDynamicDurableMutation is the durable write path of the
// file-backed Dynamic at the benchmark's shape (bench/dyn.go): 4,096
// preloaded mutations, then 20,000 measured ones — every tenth a DeleteE of
// an earlier item, the rest InsertE — over the benchmark's dataset, each a
// committed transaction with its fsync. One iteration is the whole run
// (use -benchtime 1x); the custom metrics are per measured mutation:
// persistence steps, page writes, log bytes, fsyncs (page file + log), and
// allocated bytes and objects in place of the per-iteration B/op and
// allocs/op. It FAILS above 4 steps, 0.1 page writes, 150 log bytes or
// 1.05 fsyncs per mutation — the budget of "a mutation is one small log
// record and one fsync, the state is rewritten when the level directory
// changes, and that is once per memory-sized buffer": 0.04 page writes here,
// 0.18 when the buffer was one leaf; saving the state with every mutation
// cost ≈31 steps, ≈13 page writes and 2.0 fsyncs at this length.
func BenchmarkDynamicDurableMutation(b *testing.B) {
	const preload, measured, deleteEvery = 4096, 20000, 10
	items := dataset.Western(300000, 2004)
	var steps, writes, walBytes, fsyncs, allocated, objects float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := CreateDynamic(filepath.Join(b.TempDir(), fmt.Sprintf("durable-%d.prd", i)), nil)
		if err != nil {
			b.Fatal(err)
		}
		fb := d.fb
		fresh, live := items, []Item(nil)
		mutate := func(n int) {
			if n%deleteEvery == 0 && len(live) > 0 {
				j := (n * 7919) % len(live)
				victim := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				if ok, err := d.DeleteE(victim); err != nil || !ok {
					b.Fatalf("mutation %d: DeleteE = %v, %v", n, ok, err)
				}
				return
			}
			it := fresh[0]
			fresh = fresh[1:]
			live = append(live, it)
			if err := d.InsertE(it); err != nil {
				b.Fatalf("mutation %d: %v", n, err)
			}
		}
		for n := 1; n <= preload; n++ {
			mutate(n)
		}
		s0, io0, w0, f0 := fb.PersistSteps(), d.IOStats(), fb.WALStats(), fb.FsyncStats()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		for n := preload + 1; n <= preload+measured; n++ {
			mutate(n)
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		io1, w1, f1 := d.IOStats(), fb.WALStats(), fb.FsyncStats()
		steps = float64(fb.PersistSteps()-s0) / measured
		writes = float64(io1.Writes-io0.Writes) / measured
		walBytes = float64(w1.Bytes-w0.Bytes) / measured
		fsyncs = float64(f1.Log-f0.Log+f1.PageFile-f0.PageFile) / measured
		allocated = float64(m1.TotalAlloc-m0.TotalAlloc) / measured
		objects = float64(m1.Mallocs-m0.Mallocs) / measured
		if d.Len() != len(live) {
			b.Fatalf("index holds %d items, the live set %d", d.Len(), len(live))
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(steps, "steps/op")
	b.ReportMetric(writes, "pagewrites/op")
	b.ReportMetric(walBytes, "walB/op")
	b.ReportMetric(fsyncs, "fsyncs/op")
	b.ReportMetric(allocated, "B/op")
	b.ReportMetric(objects, "allocs/op")
	b.ReportMetric(float64(measured)*float64(b.N)/b.Elapsed().Seconds(), "mutations/sec")
	if steps > 4 || writes > 0.1 || walBytes > 150 || fsyncs > 1.05 {
		b.Fatalf("a durable mutation costs %.2f steps, %.3f page writes, %.0f log bytes, %.3f fsyncs; budget 4, 0.1, 150, 1.05",
			steps, writes, walBytes, fsyncs)
	}
}

func BenchmarkHilbert2DIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = hilbert.Index2D(uint32(i)&0xffff, uint32(i*7)&0xffff, 16)
	}
}

func BenchmarkHilbert4DIndex(b *testing.B) {
	coords := []uint32{1, 2, 3, 4}
	for i := 0; i < b.N; i++ {
		coords[0] = uint32(i) & 0xffff
		_ = hilbert.Index(coords, 16)
	}
}
