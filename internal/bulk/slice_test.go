package bulk

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// sameSquare returns n copies of one record, id included: no order
// separates them, so every selection runs on one long equal run.
func sameSquare(n int) []geom.Item {
	items := make([]geom.Item, n)
	for i := range items {
		items[i] = geom.Item{Rect: geom.NewRect(3, 4, 5, 6), ID: 7}
	}
	return items
}

// TestPRTreeSliceMatchesItemFileLoad: within the memory budget the slice
// path is the ItemFile load without the file. Over an input file on a
// store of its own — so the tree's store receives tree pages only, as a
// file-backed index's does — PRTree writes the same raw-layout pages, byte for byte and
// in the same order, and the same metadata as PRTreeSlice, at Parallelism 1
// and 2 (the largest input forks the kd recursion, whose halves then select
// over one shared permutation), and PRTreeSlice leaves its input as it
// found it.
func TestPRTreeSliceMatchesItemFileLoad(t *testing.T) {
	defer allowParallelism()()
	const b = 16
	cases := []struct {
		name   string
		items  []geom.Item
		fanout int
	}{
		{"N=0", nil, b},
		{"N=1", randItems(1, 1), b},
		{"N=B", randItems(b, 2), b},
		{"N=4B", randItems(4*b, 3), b},
		{"N=4B+1", randItems(4*b+1, 4), b},
		{"N=3000", randItems(3000, 5), b},
		{"sameSquare", sameSquare(3000), b},
		{"N=30000/default fanout", randItems(30000, 6), 0},
	}
	for _, par := range []int{1, 2} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("raw/Parallelism=%d/%s", par, c.name), func(t *testing.T) {
				opt := Options{Fanout: c.fanout, Parallelism: par, MemoryItems: DefaultMemoryItems}
				fileDisk, tmp := storage.NewDisk(storage.DefaultBlockSize), storage.NewDisk(storage.DefaultBlockSize)
				fromFile := PRTree(storage.NewPager(fileDisk, -1), storage.NewItemFileFrom(tmp, c.items), opt)
				if tmp.PagesInUse() != 0 {
					t.Fatalf("the ItemFile load left %d temporary pages", tmp.PagesInUse())
				}

				input := slices.Clone(c.items)
				sliceDisk := storage.NewDisk(storage.DefaultBlockSize)
				fromSlice := PRTreeSlice(storage.NewPager(sliceDisk, -1), c.items, opt)
				if !slices.Equal(c.items, input) {
					t.Fatal("PRTreeSlice wrote its input")
				}
				if err := fromSlice.Validate(); err != nil {
					t.Fatal(err)
				}
				if fromSlice.Len() != len(c.items) {
					t.Fatalf("slice load holds %d of %d items", fromSlice.Len(), len(c.items))
				}

				sameTree(t, fromSlice, sliceDisk, fromFile, fileDisk)
			})
		}
	}
}

// sameTree fails the test unless the slice load's tree and pages are the
// ItemFile load's, byte for byte and in the same order.
func sameTree(t *testing.T, fromSlice *rtree.Tree, sliceDisk *storage.Disk, fromFile *rtree.Tree, fileDisk *storage.Disk) {
	t.Helper()
	if !bytes.Equal(fromSlice.EncodeMeta(), fromFile.EncodeMeta()) {
		t.Errorf("metadata differs: height %d root %d, ItemFile load height %d root %d",
			fromSlice.Height(), fromSlice.Root(), fromFile.Height(), fromFile.Root())
	}
	if sliceDisk.NumPages() != fileDisk.NumPages() {
		t.Fatalf("slice load wrote %d pages, the ItemFile load %d", sliceDisk.NumPages(), fileDisk.NumPages())
	}
	for id := 0; id < sliceDisk.NumPages(); id++ {
		if !bytes.Equal(sliceDisk.PeekNoCopy(storage.PageID(id)), fileDisk.PeekNoCopy(storage.PageID(id))) {
			t.Fatalf("page %d differs", id)
		}
	}
}

// tiedItems returns n records on 400 unit squares with 50 ids: every
// record ties with others on each coordinate and its id.
func tiedItems(n int) []geom.Item {
	items := make([]geom.Item, n)
	for i := range items {
		x, y := float64(i%20), float64(i%400/20)
		items[i] = geom.Item{Rect: geom.NewRect(x, y, x+1, y+1), ID: uint32(i % 50)}
	}
	return items
}

// TestLoadSliceMatchesItemFileLoad: LoadSlice's H, H4 and TGS are Load
// without the file. Over an input file on a store of its own, Load writes
// the same pages, byte for byte and in the same order, and the same
// metadata as LoadSlice, at fanout 16 and the default, Parallelism 1 and
// 2; LoadSlice leaves its input as it found it. The Hilbert loaders match
// on tied inputs too; TGS's external partition needs records distinct in
// (coordinate, id), which randItems' are.
func TestLoadSliceMatchesItemFileLoad(t *testing.T) {
	defer allowParallelism()()
	type input struct {
		name  string
		items []geom.Item
	}
	var inputs []input
	for i, n := range []int{0, 1, 16, 4*16 + 1, 3000, 30000} {
		inputs = append(inputs, input{fmt.Sprintf("N=%d", n), randItems(n, int64(i+1))})
	}
	tied := []input{{"sameSquare", sameSquare(3000)}, {"tied", tiedItems(5000)}}
	for _, l := range []Loader{LoaderHilbert, LoaderHilbert4D, LoaderTGS} {
		cases := inputs
		if l != LoaderTGS {
			cases = append(slices.Clip(inputs), tied...)
		}
		for _, par := range []int{1, 2} {
			for _, fanout := range []int{16, 0} {
				for _, c := range cases {
					t.Run(fmt.Sprintf("%v/Parallelism=%d/fanout=%d/%s", l, par, fanout, c.name), func(t *testing.T) {
						opt := Options{Fanout: fanout, Parallelism: par}
						fileDisk, tmp := storage.NewDisk(storage.DefaultBlockSize), storage.NewDisk(storage.DefaultBlockSize)
						fromFile := Load(l, storage.NewPager(fileDisk, -1), storage.NewItemFileFrom(tmp, c.items), opt)
						input := slices.Clone(c.items)
						sliceDisk := storage.NewDisk(storage.DefaultBlockSize)
						fromSlice := LoadSlice(l, storage.NewPager(sliceDisk, -1), c.items, opt)
						if !slices.Equal(c.items, input) {
							t.Fatal("LoadSlice wrote its input")
						}
						if err := fromSlice.Validate(); err != nil {
							t.Fatal(err)
						}
						if fromSlice.Len() != len(c.items) {
							t.Fatalf("slice load holds %d of %d items", fromSlice.Len(), len(c.items))
						}
						sameTree(t, fromSlice, sliceDisk, fromFile, fileDisk)
					})
				}
			}
		}
	}
}
