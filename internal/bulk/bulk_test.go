package bulk_test

import (
	"runtime"
	"testing"

	"prtree/internal/bulk"
	"prtree/internal/dataset"
	"prtree/internal/extmem"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// The loaders' tests here build with the external constructions
// (extmem.Load) — their memory budget forces external rounds — and hold
// the in-memory ones (bulk.LoadSlice) to the same pages (slice_test.go).

// allowParallelism raises GOMAXPROCS so the worker pool actually fans out
// even on single-CPU machines (Parallelism is clamped to GOMAXPROCS).
func allowParallelism() func() {
	old := runtime.GOMAXPROCS(4)
	return func() { runtime.GOMAXPROCS(old) }
}

// loadOn bulk-loads items with l's external construction, its input and
// temporaries on the tree's device.
func loadOn(tb testing.TB, l bulk.Loader, items []geom.Item, opt extmem.Options) *rtree.Tree {
	tb.Helper()
	disk := storage.NewDisk(storage.DefaultBlockSize)
	pager := storage.NewPager(disk, -1)
	return extmem.Load(l, pager, extmem.NewItemFileFrom(disk, items), opt)
}

func TestAllLoadersValidTrees(t *testing.T) {
	items := zoo.Uniform(5000, 0.01, 1)
	for _, l := range bulk.Loaders {
		tr := loadOn(t, l, items, extmem.Options{Fanout: 16, MemoryItems: 1024})
		if tr.Len() != len(items) {
			t.Fatalf("%v: len = %d", l, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: %v", l, err)
		}
	}
}

func TestAllLoadersQueryCorrect(t *testing.T) {
	items := zoo.Uniform(3000, 0.01, 2)
	for _, l := range bulk.Loaders {
		tr := loadOn(t, l, items, extmem.Options{Fanout: 16, MemoryItems: 1024})
		for _, q := range zoo.Windows(25, 3) {
			if err := zoo.Expect(items, zoo.Query{Rect: q}).CheckScan(func(f func(geom.Item) bool) { tr.RunWindow(q, false, f, rtree.RunOptions{}) }); err != nil {
				t.Fatalf("window %v: %v", q, err)
			}
		}
	}
}

func TestAllLoadersEmptyAndTiny(t *testing.T) {
	for _, l := range bulk.Loaders {
		tr := loadOn(t, l, nil, extmem.Options{})
		if tr.Len() != 0 || tr.Validate() != nil {
			t.Fatalf("%v: broken empty tree", l)
		}
		one := zoo.Uniform(1, 0.01, 4)
		tr = loadOn(t, l, one, extmem.Options{})
		if tr.Len() != 1 || tr.Height() != 1 {
			t.Fatalf("%v: single-item tree len=%d h=%d", l, tr.Len(), tr.Height())
		}
		w := geom.NewRect(0, 0, 2, 2)
		if err := zoo.Expect(one, zoo.Query{Rect: w}).CheckScan(func(f func(geom.Item) bool) { tr.RunWindow(w, false, f, rtree.RunOptions{}) }); err != nil {
			t.Fatalf("window %v: %v", w, err)
		}
	}
}

func TestAllLoadersExactlyOneNode(t *testing.T) {
	for _, l := range bulk.Loaders {
		items := zoo.Uniform(16, 0.01, 5)
		tr := loadOn(t, l, items, extmem.Options{Fanout: 16})
		if tr.Height() != 1 {
			t.Fatalf("%v: height %d for exactly-full leaf", l, tr.Height())
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUtilizationAbove99Percent(t *testing.T) {
	// Paper §3.3: every loader achieved > 99% space utilization. Use the
	// real fanout (113) and a dataset large enough for many leaves.
	items := zoo.Uniform(113*150, 0.01, 6)
	for _, l := range bulk.Loaders {
		tr := loadOn(t, l, items, extmem.Options{MemoryItems: 8192})
		leaf, _ := tr.Utilization()
		min := 0.99
		if l == bulk.LoaderTGS || l == bulk.LoaderPR {
			// TGS rounds subtree sizes to powers of B (one underfull node
			// per level); PR's kd leaves round to B with one remainder per
			// in-memory subtree. Both still stay very high.
			min = 0.95
		}
		if leaf < min {
			t.Errorf("%v: leaf utilization %.4f < %.2f", l, leaf, min)
		}
	}
}

// buildCost bulk-loads items with each loader on a fresh in-memory disk —
// input, temporaries and tree on the one device, the paper's set-up — and
// returns the block I/Os of each load.
func buildCost(t *testing.T, items []geom.Item, opt extmem.Options, loaders ...bulk.Loader) map[bulk.Loader]uint64 {
	t.Helper()
	cost := map[bulk.Loader]uint64{}
	for _, l := range loaders {
		disk := storage.NewDisk(storage.DefaultBlockSize)
		pager := storage.NewPager(disk, -1)
		in := extmem.NewItemFileFrom(disk, items)
		disk.ResetStats()
		tr := extmem.Load(l, pager, in, opt)
		cost[l] = disk.Stats().Total()
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: %v", l, err)
		}
	}
	return cost
}

func TestBuildIOOrdering(t *testing.T) {
	// Figure 9: I/O cost ordering H (cheapest) < PR < TGS, with
	// PR within a small factor of H and TGS well above PR. With M this
	// small the first round's regions need a second external round and are
	// handed four lists each; measured 4.23x H (5.43x when the input was
	// scanned four times and every region got four lists).
	cost := buildCost(t, zoo.Uniform(40000, 0.01, 7), extmem.Options{Fanout: 113, MemoryItems: 4096},
		bulk.LoaderHilbert, bulk.LoaderPR, bulk.LoaderTGS)
	if !(cost[bulk.LoaderHilbert] < cost[bulk.LoaderPR] && cost[bulk.LoaderPR] < cost[bulk.LoaderTGS]) {
		t.Errorf("I/O ordering violated: H=%d PR=%d TGS=%d",
			cost[bulk.LoaderHilbert], cost[bulk.LoaderPR], cost[bulk.LoaderTGS])
	}
	if 10*cost[bulk.LoaderPR] > 45*cost[bulk.LoaderHilbert] {
		t.Errorf("PR build cost %d is more than 4.5x H %d", cost[bulk.LoaderPR], cost[bulk.LoaderHilbert])
	}
	if cost[bulk.LoaderTGS] < 2*cost[bulk.LoaderPR] {
		t.Errorf("TGS cost %d suspiciously close to PR %d", cost[bulk.LoaderTGS], cost[bulk.LoaderPR])
	}
}

// TestBuildIOFigure9 holds the PR load to the paper's Figure 9 relation —
// about 2.5x the packed Hilbert tree's block I/Os — at a scale where, as
// in the paper, one external round suffices: the benchmark's 216k
// rectangles at the default M. Measured 37,176 against 13,402 = 2.77x.
func TestBuildIOFigure9(t *testing.T) {
	cost := buildCost(t, dataset.Western(300000, 2004), extmem.Options{}, bulk.LoaderHilbert, bulk.LoaderPR)
	if cost[bulk.LoaderPR] > 3*cost[bulk.LoaderHilbert] {
		t.Errorf("PR build cost %d is more than 3x H %d", cost[bulk.LoaderPR], cost[bulk.LoaderHilbert])
	}
	t.Logf("PR %d, H %d block I/Os: %.2fx", cost[bulk.LoaderPR], cost[bulk.LoaderHilbert],
		float64(cost[bulk.LoaderPR])/float64(cost[bulk.LoaderHilbert]))
}

func TestLoadersFreeScratchSpace(t *testing.T) {
	items := zoo.Uniform(8000, 0.01, 8)
	opt := extmem.Options{Fanout: 32, MemoryItems: 2048}
	for _, l := range bulk.Loaders {
		disk := storage.NewDisk(storage.DefaultBlockSize)
		pager := storage.NewPager(disk, -1)
		tr := extmem.Load(l, pager, extmem.NewItemFileFrom(disk, items), opt)
		if disk.PagesInUse() != tr.Nodes() {
			t.Errorf("%v: %d pages in use for %d tree nodes (scratch leaked)",
				l, disk.PagesInUse(), tr.Nodes())
		}

		// The same load with its input on a store of its own: every
		// temporary follows the input there and is freed, the tree's
		// device holds nothing but the tree — densely, since no temporary
		// ever took a page id — and the two stores together do the same
		// block I/O.
		treeDisk, tmp := storage.NewDisk(storage.DefaultBlockSize), storage.NewDisk(storage.DefaultBlockSize)
		split := extmem.Load(l, storage.NewPager(treeDisk, -1), extmem.NewItemFileFrom(tmp, items), opt)
		if tmp.PagesInUse() != 0 {
			t.Errorf("%v: the input's store ends at %d pages in use (scratch leaked)", l, tmp.PagesInUse())
		}
		if treeDisk.NumPages() != split.Nodes() || treeDisk.PagesInUse() != split.Nodes() {
			t.Errorf("%v: tree device has %d pages, %d in use, for %d tree nodes",
				l, treeDisk.NumPages(), treeDisk.PagesInUse(), split.Nodes())
		}
		if split.Nodes() != tr.Nodes() || split.Height() != tr.Height() {
			t.Errorf("%v: shape %d nodes / height %d with a store for the input, %d / %d without",
				l, split.Nodes(), split.Height(), tr.Nodes(), tr.Height())
		}
		if got, want := treeDisk.Stats().Add(tmp.Stats()), disk.Stats(); got != want {
			t.Errorf("%v: block I/O %v across tree device and input store, %v on one device", l, got, want)
		}
	}
}

func TestTGSPrefersVerticalCutOnColumns(t *testing.T) {
	// Mirror of the Theorem 3 intuition: on well-separated vertical
	// columns, TGS should cut between columns (keeping each column whole)
	// rather than across rows.
	var items []geom.Item
	id := uint32(0)
	for col := 0; col < 8; col++ {
		for row := 0; row < 16; row++ {
			x := float64(col)
			y := float64(row) / 16
			items = append(items, geom.Item{Rect: geom.PointRect(x+0.5, y), ID: id})
			id++
		}
	}
	tr := loadOn(t, bulk.LoaderTGS, items, extmem.Options{Fanout: 16})
	// Every leaf should span exactly one column (width 0).
	bad := 0
	tr.Walk(func(_ storage.PageID, _ int, isLeaf bool, entries []geom.Item) {
		if !isLeaf {
			return
		}
		mbr := geom.ItemsMBR(entries)
		if mbr.Width() > 0 {
			bad++
		}
	})
	if bad > 0 {
		t.Errorf("%d TGS leaves span multiple columns", bad)
	}
}

func TestPRTreeHandlesExtremeAspect(t *testing.T) {
	// Long thin segments: PR must stay valid and correct.
	items := zoo.Cross(4000, 0.5, 9)
	tr := loadOn(t, bulk.LoaderPR, items, extmem.Options{Fanout: 16, MemoryItems: 1024})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, q := range zoo.Windows(20, 10) {
		if err := zoo.Expect(items, zoo.Query{Rect: q}).CheckScan(func(f func(geom.Item) bool) { tr.RunWindow(q, false, f, rtree.RunOptions{}) }); err != nil {
			t.Fatalf("window %v: %v", q, err)
		}
	}
}

func TestLoadersWithDefaultOptions(t *testing.T) {
	items := zoo.Uniform(1000, 0.01, 10)
	for _, l := range bulk.Loaders {
		tr := loadOn(t, l, items, extmem.Options{})
		if tr.Config().Fanout != 113 {
			t.Errorf("%v: default fanout = %d", l, tr.Config().Fanout)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: %v", l, err)
		}
	}
}

func TestLoadConsumesInput(t *testing.T) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	pager := storage.NewPager(disk, -1)
	in := extmem.NewItemFileFrom(disk, zoo.Uniform(500, 0.01, 11))
	tr := extmem.Load(bulk.LoaderHilbert, pager, in, extmem.Options{Fanout: 16})
	// Input pages must have been freed.
	if disk.PagesInUse() != tr.Nodes() {
		t.Errorf("input not freed: %d pages in use, %d tree nodes", disk.PagesInUse(), tr.Nodes())
	}
}

func TestDuplicateRectsAllLoaders(t *testing.T) {
	items := zoo.Copies(600, geom.NewRect(0.4, 0.4, 0.6, 0.6))
	for _, l := range bulk.Loaders {
		tr := loadOn(t, l, items, extmem.Options{Fanout: 16, MemoryItems: 1024})
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		if got, _ := tr.RunWindow(geom.NewRect(0.5, 0.5, 0.5, 0.5), false, nil, rtree.RunOptions{}); got.Results != 600 {
			t.Fatalf("%v: found %d of 600 duplicates", l, got.Results)
		}
	}
}
