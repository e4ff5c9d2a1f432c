package extsort

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// allowParallelism raises GOMAXPROCS so the worker pool actually fans out
// even on single-CPU machines (Workers is clamped to GOMAXPROCS). Returns
// a restore function.
func allowParallelism() func() {
	old := runtime.GOMAXPROCS(4)
	return func() { runtime.GOMAXPROCS(old) }
}

func randItems(n int, seed int64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Item, n)
	for i := range items {
		x, y := rng.Float64()*1000-500, rng.Float64()*1000-500
		items[i] = geom.Item{
			Rect: geom.NewRect(x, y, x+rng.Float64(), y+rng.Float64()),
			ID:   uint32(i),
		}
	}
	return items
}

func TestFloat64KeyOrderPreserving(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -2.5, -1, -0.001, 0, 0.001, 1, 2.5, 1e300, math.Inf(1)}
	for i := 0; i < len(vals)-1; i++ {
		if !(Float64Key(vals[i]) < Float64Key(vals[i+1])) {
			t.Errorf("key order broken between %g and %g", vals[i], vals[i+1])
		}
	}
}

func TestFloat64KeyQuick(t *testing.T) {
	prop := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a == b {
			return true // -0 and +0 compare equal as floats but differ in bits; skip
		}
		return (a < b) == (Float64Key(a) < Float64Key(b))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyLessTieBreak(t *testing.T) {
	a := Key{Main: 5, Tie: 1}
	b := Key{Main: 5, Tie: 2}
	if !a.Less(b) || b.Less(a) {
		t.Error("tie-break by Tie failed")
	}
	c := Key{Main: 4, Tie: 9}
	if !c.Less(a) {
		t.Error("Main ordering failed")
	}
	if a.Less(a) {
		t.Error("Less must be irreflexive")
	}
}

func checkSortedByAxis(t *testing.T, items []geom.Item, axis int) {
	t.Helper()
	for i := 1; i < len(items); i++ {
		prev, cur := items[i-1], items[i]
		pc, cc := prev.Rect.Coord(axis), cur.Rect.Coord(axis)
		if pc > cc || (pc == cc && prev.ID >= cur.ID) {
			t.Fatalf("not sorted at %d: (%g,%d) then (%g,%d)", i, pc, prev.ID, cc, cur.ID)
		}
	}
}

func TestSortSmallSingleRun(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	items := randItems(200, 1)
	in := storage.NewItemFileFrom(d, items)
	out := Sort(in, AxisKey(0), Config{MemoryItems: 10000})
	got := out.ReadAll()
	if len(got) != 200 {
		t.Fatalf("len = %d", len(got))
	}
	checkSortedByAxis(t, got, 0)
}

func TestSortMultiPass(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	n := per * 50
	items := randItems(n, 2)
	in := storage.NewItemFileFrom(d, items)
	// Tiny memory: runs of 3 blocks, fan-in 2 => several merge passes.
	out := Sort(in, AxisKey(2), Config{MemoryItems: 3 * per})
	got := out.ReadAll()
	if len(got) != n {
		t.Fatalf("len = %d, want %d", len(got), n)
	}
	checkSortedByAxis(t, got, 2)
}

func TestSortAllAxes(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	items := randItems(1500, 3)
	for axis := 0; axis < 4; axis++ {
		in := storage.NewItemFileFrom(d, items)
		out := Sort(in, AxisKey(axis), Config{MemoryItems: 500})
		checkSortedByAxis(t, out.ReadAll(), axis)
		out.Free()
		in.Free()
	}
}

func TestSortPreservesMultiset(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	items := randItems(777, 4)
	in := storage.NewItemFileFrom(d, items)
	out := Sort(in, AxisKey(1), Config{MemoryItems: 400})
	got := out.ReadAll()
	seen := make(map[uint32]geom.Item, len(got))
	for _, it := range got {
		seen[it.ID] = it
	}
	if len(seen) != len(items) {
		t.Fatalf("lost items: %d unique of %d", len(seen), len(items))
	}
	for _, it := range items {
		if seen[it.ID] != it {
			t.Fatalf("item %d corrupted", it.ID)
		}
	}
}

func TestSortEmptyAndSingle(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	empty := storage.NewItemFileFrom(d, nil)
	out := Sort(empty, AxisKey(0), Config{MemoryItems: 1000})
	if out.Len() != 0 {
		t.Errorf("empty sort len = %d", out.Len())
	}
	one := storage.NewItemFileFrom(d, randItems(1, 5))
	out = Sort(one, AxisKey(0), Config{MemoryItems: 1000})
	if out.Len() != 1 {
		t.Errorf("single sort len = %d", out.Len())
	}
}

func TestSortDuplicateCoordinatesStableByID(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	items := make([]geom.Item, 100)
	for i := range items {
		items[i] = geom.Item{Rect: geom.NewRect(1, 2, 3, 4), ID: uint32(99 - i)}
	}
	in := storage.NewItemFileFrom(d, items)
	out := Sort(in, AxisKey(0), Config{MemoryItems: 400})
	got := out.ReadAll()
	for i := 1; i < len(got); i++ {
		if got[i-1].ID >= got[i].ID {
			t.Fatalf("duplicate coords must be ordered by id: %d then %d", got[i-1].ID, got[i].ID)
		}
	}
}

func TestUintKey(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	items := randItems(300, 7)
	in := storage.NewItemFileFrom(d, items)
	out := Sort(in, UintKey(func(it geom.Item) uint64 { return uint64(it.ID % 7) }),
		Config{MemoryItems: 400})
	got := out.ReadAll()
	for i := 1; i < len(got); i++ {
		a, b := got[i-1].ID%7, got[i].ID%7
		if a > b {
			t.Fatalf("uint key sort broken at %d", i)
		}
	}
}

func TestSortIOComplexity(t *testing.T) {
	// With memory m and input n blocks, the sort should cost
	// O(n log_{m/B}(n/m)) block I/Os; check against a generous constant.
	d := storage.NewDisk(storage.DefaultBlockSize)
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	nBlocks := 64
	memBlocks := 4 // fan-in 3
	items := randItems(nBlocks*per, 8)
	in := storage.NewItemFileFrom(d, items)
	d.ResetStats()
	out := Sort(in, AxisKey(0), Config{MemoryItems: memBlocks * per})
	st := d.Stats()
	// passes = 1 (runs) + ceil(log_3(16 runs)) = 1+3 = 4; each pass reads+writes n blocks.
	maxIO := uint64(2 * nBlocks * 6)
	if st.Total() > maxIO {
		t.Errorf("sort cost %d I/Os, want <= %d", st.Total(), maxIO)
	}
	checkSortedByAxis(t, out.ReadAll(), 0)
}

func TestSortFreesIntermediateRuns(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	items := randItems(per*20, 9)
	in := storage.NewItemFileFrom(d, items)
	before := d.PagesInUse()
	out := Sort(in, AxisKey(0), Config{MemoryItems: 3 * per})
	// Only the output file (20 blocks) should remain beyond the input.
	if got := d.PagesInUse() - before; got != out.Blocks() {
		t.Errorf("leaked pages: %d in use beyond input, output has %d", got, out.Blocks())
	}
}

// rawBytes concatenates a sealed file's encoded blocks without counting
// I/O, for byte-level comparisons.
func rawBytes(d *storage.Disk, f *storage.ItemFile) []byte {
	var out []byte
	r := f.Reader()
	for {
		rec, ok := r.NextRaw()
		if !ok {
			return out
		}
		out = append(out, rec...)
	}
}

// TestSortSerialParallelEquivalence is the determinism property test: for
// every (seed, memory budget, worker count) the parallel sort must produce
// byte-identical output and identical disk read/write counters to the
// serial sort of the same input — and one SortKeys call for all the keys
// must produce, per key, the bytes of that key's own sort, with the writes
// of the separate sorts and their reads less the input scans it saves:
// exactly (keys - 1) x input blocks.
func TestSortSerialParallelEquivalence(t *testing.T) {
	defer allowParallelism()()
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	names := []string{"axis0", "uint"}
	keys := []KeyFunc{
		AxisKey(0),
		UintKey(func(it geom.Item) uint64 { return uint64(it.ID) % 97 }),
	}
	for _, seed := range []int64{1, 7} {
		for _, n := range []int{1, per * 2, 5000, 20011} {
			items := randItems(n, seed)
			for _, mem := range []int{3 * per, 8 * per, 4096} {
				var separate storage.Stats
				serial := make([][]byte, len(keys))
				for k, key := range keys {
					name := names[k]
					// Serial reference.
					ds := storage.NewDisk(storage.DefaultBlockSize)
					ins := storage.NewItemFileFrom(ds, items)
					ds.ResetStats()
					outS := Sort(ins, key, Config{MemoryItems: mem, Workers: 1})
					statS := ds.Stats()
					bytesS := rawBytes(ds, outS)
					separate = separate.Add(statS)
					serial[k] = bytesS

					for _, workers := range []int{2, 3, 8} {
						dp := storage.NewDisk(storage.DefaultBlockSize)
						inp := storage.NewItemFileFrom(dp, items)
						dp.ResetStats()
						outP := Sort(inp, key, Config{MemoryItems: mem, Workers: workers})
						statP := dp.Stats()
						if statP != statS {
							t.Fatalf("seed=%d n=%d mem=%d key=%s workers=%d: stats %v != serial %v",
								seed, n, mem, name, workers, statP, statS)
						}
						if outP.Blocks() != outS.Blocks() {
							t.Fatalf("seed=%d n=%d mem=%d key=%s workers=%d: %d blocks != serial %d",
								seed, n, mem, name, workers, outP.Blocks(), outS.Blocks())
						}
						bytesP := rawBytes(dp, outP)
						if string(bytesP) != string(bytesS) {
							t.Fatalf("seed=%d n=%d mem=%d key=%s workers=%d: output bytes differ from serial",
								seed, n, mem, name, workers)
						}
					}
				}

				for _, workers := range []int{1, 2, 8} {
					d := storage.NewDisk(storage.DefaultBlockSize)
					in := storage.NewItemFileFrom(d, items)
					d.ResetStats()
					outs := SortKeys(in, keys, Config{MemoryItems: mem, Workers: workers})
					want := separate
					want.Reads -= uint64((len(keys) - 1) * in.Blocks())
					if got := d.Stats(); got != want {
						t.Fatalf("seed=%d n=%d mem=%d workers=%d: all keys at once cost %v, want %v (separate sorts %v less %d input scans of %d blocks)",
							seed, n, mem, workers, got, want, separate, len(keys)-1, in.Blocks())
					}
					for k, out := range outs {
						if string(rawBytes(d, out)) != string(serial[k]) {
							t.Fatalf("seed=%d n=%d mem=%d workers=%d: key %s sorted with the others differs from its own sort",
								seed, n, mem, workers, names[k])
						}
					}
				}
			}
		}
	}
}

// TestSortReleasesScratchPages enforces the "intermediate runs are freed"
// contract: after a multi-pass sort the disk must hold exactly the input
// and output pages, at every worker count, and freeing both must return
// the disk to empty.
func TestSortReleasesScratchPages(t *testing.T) {
	defer allowParallelism()()
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	for _, workers := range []int{1, 4} {
		d := storage.NewDisk(storage.DefaultBlockSize)
		items := randItems(per*20+17, 9)
		in := storage.NewItemFileFrom(d, items)
		// Tiny memory: fan-in 2, three merge passes over 7 runs.
		out := Sort(in, AxisKey(0), Config{MemoryItems: 3 * per, Workers: workers})
		if got, want := d.PagesInUse(), in.Blocks()+out.Blocks(); got != want {
			t.Errorf("workers=%d: %d pages in use after sort, want input+output = %d", workers, got, want)
		}
		out.Free()
		in.Free()
		if got := d.PagesInUse(); got != 0 {
			t.Errorf("workers=%d: %d pages still in use after freeing input and output", workers, got)
		}
	}
}

// TestSortKeyedMatchesStdSort cross-checks the radix sort against the
// standard library on keys with heavy duplication in Main (exercising the
// Tie digits and pass skipping).
func TestSortKeyedMatchesStdSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, radixMinN - 1, radixMinN, 1000, 10000} {
		a := make([]sortRec, n)
		for i := range a {
			// Few distinct ties as well, so equal keys occur and the
			// positions check stability.
			a[i] = sortRec{main: uint64(rng.Intn(8)) << 40, tie: uint32(rng.Intn(50)) << 9, pos: uint32(i)}
		}
		ref := make([]sortRec, n)
		copy(ref, a)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].key().Less(ref[j].key()) })
		got := sortRecs(a, make([]sortRec, n))
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("n=%d: mismatch at %d: %+v != %+v", n, i, got[i], ref[i])
			}
		}
	}
}

func TestSortTinyMemoryPanics(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	in := storage.NewItemFileFrom(d, randItems(10, 10))
	defer func() {
		if recover() == nil {
			t.Error("sub-3-block memory should panic")
		}
	}()
	Sort(in, AxisKey(0), Config{MemoryItems: 5})
}

// TestSortParallelWorkerPanicPropagates: a panicking KeyFunc must surface
// on the caller's goroutine even with the pipeline engaged — a failed task
// still releases its chunk, so the reader can never starve into a
// deadlock. A regression here shows up as this test timing out.
func TestSortParallelWorkerPanicPropagates(t *testing.T) {
	defer allowParallelism()()
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	d := storage.NewDisk(storage.DefaultBlockSize)
	// Many more runs than buffers so the reader must wait on recycling.
	in := storage.NewItemFileFrom(d, randItems(per*200, 12))
	poison := func(it geom.Item) Key {
		if it.ID == 5000 {
			panic("poisoned key")
		}
		return Key{Main: uint64(it.ID)}
	}
	// The poisoned key alone, and as one of four: the chunk it fails on is
	// also being sorted by the other keys, and must still come back to the
	// reader however many of its keys were done.
	for _, keys := range [][]KeyFunc{
		{poison},
		{AxisKey(0), AxisKey(1), poison, AxisKey(3)},
	} {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			SortKeys(in, keys, Config{MemoryItems: 3 * per, Workers: 4})
		}()
		select {
		case r := <-done:
			if r == nil {
				t.Fatalf("%d keys: worker panic was swallowed", len(keys))
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d keys: the sort deadlocked instead of propagating the worker panic", len(keys))
		}
	}
}
