package extmem

import (
	"math/rand"
	"slices"
	"testing"

	"prtree/internal/bulk"
	"prtree/internal/geom"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// sortInput returns n small rectangles spread over [-500, 500)^2, ids
// 0..n-1.
func sortInput(n int, seed int64) []geom.Item {
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
	items := sortInput(200, 1)
	in := NewItemFileFrom(d, items)
	out := Sort(in, bulk.AxisKey(0), 10000)
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
	items := sortInput(n, 2)
	in := NewItemFileFrom(d, items)
	// Tiny memory: runs of 3 blocks, fan-in 2 => several merge passes.
	out := Sort(in, bulk.AxisKey(2), 3*per)
	got := out.ReadAll()
	if len(got) != n {
		t.Fatalf("len = %d, want %d", len(got), n)
	}
	checkSortedByAxis(t, got, 2)
}

func TestSortAllAxes(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	items := sortInput(1500, 3)
	for axis := 0; axis < 4; axis++ {
		in := NewItemFileFrom(d, items)
		out := Sort(in, bulk.AxisKey(axis), 500)
		checkSortedByAxis(t, out.ReadAll(), axis)
		out.Free()
		in.Free()
	}
}

func TestSortPreservesMultiset(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	items := sortInput(777, 4)
	in := NewItemFileFrom(d, items)
	out := Sort(in, bulk.AxisKey(1), 400)
	if got := zoo.Sorted(out.ReadAll()); !slices.Equal(got, items) {
		t.Fatalf("sort returned %d items, not the %d it was given", len(got), len(items))
	}
}

func TestSortEmptyAndSingle(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	empty := NewItemFileFrom(d, nil)
	out := Sort(empty, bulk.AxisKey(0), 1000)
	if out.Len() != 0 {
		t.Errorf("empty sort len = %d", out.Len())
	}
	one := NewItemFileFrom(d, sortInput(1, 5))
	out = Sort(one, bulk.AxisKey(0), 1000)
	if out.Len() != 1 {
		t.Errorf("single sort len = %d", out.Len())
	}
}

func TestSortDuplicateCoordinatesStableByID(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	items := zoo.Copies(100, geom.NewRect(1, 2, 3, 4))
	slices.Reverse(items)
	in := NewItemFileFrom(d, items)
	out := Sort(in, bulk.AxisKey(0), 400)
	got := out.ReadAll()
	for i := 1; i < len(got); i++ {
		if got[i-1].ID >= got[i].ID {
			t.Fatalf("duplicate coords must be ordered by id: %d then %d", got[i-1].ID, got[i].ID)
		}
	}
}

func TestUintKey(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	items := sortInput(300, 7)
	in := NewItemFileFrom(d, items)
	out := Sort(in, bulk.UintKey(func(it geom.Item) uint64 { return uint64(it.ID % 7) }),
		400)
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
	items := sortInput(nBlocks*per, 8)
	in := NewItemFileFrom(d, items)
	d.ResetStats()
	out := Sort(in, bulk.AxisKey(0), memBlocks*per)
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
	items := sortInput(per*20, 9)
	in := NewItemFileFrom(d, items)
	before := d.PagesInUse()
	out := Sort(in, bulk.AxisKey(0), 3*per)
	// Only the output file (20 blocks) should remain beyond the input.
	if got := d.PagesInUse() - before; got != out.Blocks() {
		t.Errorf("leaked pages: %d in use beyond input, output has %d", got, out.Blocks())
	}
}

// rawBytes concatenates a sealed file's encoded records, for byte-level
// comparisons.
func rawBytes(f *ItemFile) []byte {
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

// TestSortKeysMatchesSeparateSorts: one SortKeys call for several keys
// produces, per key, the bytes of that key's own sort, with the writes of
// the separate sorts and their reads less the input scans it saves:
// exactly (keys - 1) x input blocks.
func TestSortKeysMatchesSeparateSorts(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	names := []string{"axis0", "uint"}
	keys := []bulk.KeyFunc{
		bulk.AxisKey(0),
		bulk.UintKey(func(it geom.Item) uint64 { return uint64(it.ID) % 97 }),
	}
	for _, seed := range []int64{1, 7} {
		for _, n := range []int{1, per * 2, 5000, 20011} {
			items := sortInput(n, seed)
			for _, mem := range []int{3 * per, 8 * per, 4096} {
				var separate storage.Stats
				serial := make([][]byte, len(keys))
				for k, key := range keys {
					ds := storage.NewDisk(storage.DefaultBlockSize)
					ins := NewItemFileFrom(ds, items)
					ds.ResetStats()
					out := Sort(ins, key, mem)
					separate = separate.Add(ds.Stats())
					serial[k] = rawBytes(out)
				}

				d := storage.NewDisk(storage.DefaultBlockSize)
				in := NewItemFileFrom(d, items)
				d.ResetStats()
				outs := SortKeys(in, keys, mem)
				want := separate
				want.Reads -= uint64((len(keys) - 1) * in.Blocks())
				if got := d.Stats(); got != want {
					t.Fatalf("seed=%d n=%d mem=%d: all keys at once cost %v, want %v (separate sorts %v less %d input scans of %d blocks)",
						seed, n, mem, got, want, separate, len(keys)-1, in.Blocks())
				}
				for k, out := range outs {
					if string(rawBytes(out)) != string(serial[k]) {
						t.Fatalf("seed=%d n=%d mem=%d: key %s sorted with the others differs from its own sort",
							seed, n, mem, names[k])
					}
				}
			}
		}
	}
}

// TestSortReleasesScratchPages enforces the "intermediate runs are freed"
// contract: after a multi-pass sort the disk must hold exactly the input
// and output pages, and freeing both must return the disk to empty.
func TestSortReleasesScratchPages(t *testing.T) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	d := storage.NewDisk(storage.DefaultBlockSize)
	items := sortInput(per*20+17, 9)
	in := NewItemFileFrom(d, items)
	// Tiny memory: fan-in 2, three merge passes over 7 runs.
	out := Sort(in, bulk.AxisKey(0), 3*per)
	if got, want := d.PagesInUse(), in.Blocks()+out.Blocks(); got != want {
		t.Errorf("%d pages in use after sort, want input+output = %d", got, want)
	}
	out.Free()
	in.Free()
	if got := d.PagesInUse(); got != 0 {
		t.Errorf("%d pages still in use after freeing input and output", got)
	}
}

func TestSortTinyMemoryPanics(t *testing.T) {
	d := storage.NewDisk(storage.DefaultBlockSize)
	in := NewItemFileFrom(d, sortInput(10, 10))
	defer func() {
		if recover() == nil {
			t.Error("sub-3-block memory should panic")
		}
	}()
	Sort(in, bulk.AxisKey(0), 5)
}
