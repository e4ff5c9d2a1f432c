package bulk_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"prtree/internal/bulk"
	"prtree/internal/extmem"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// TestPRTreeSliceMatchesItemFileLoad: within the memory budget the slice
// path is the ItemFile load without the file. Over an input file on a
// store of its own — so the tree's store receives tree pages only, as a
// file-backed index's does — extmem.Load writes the same raw-layout
// pages, byte for byte and in the same order, and the same metadata as
// PRTreeSlice at Parallelism 1 and 2 (the largest input forks the kd
// recursion, whose halves then select over one shared permutation), and
// PRTreeSlice leaves its input as it found it. The ItemFile load of each
// input is built once and compared against both.
func TestPRTreeSliceMatchesItemFileLoad(t *testing.T) {
	defer allowParallelism()()
	const b = 16
	cases := []struct {
		name   string
		items  []geom.Item
		fanout int
	}{
		{"N=0", nil, b},
		{"N=1", zoo.Uniform(1, 0.01, 1), b},
		{"N=B", zoo.Uniform(b, 0.01, 2), b},
		{"N=4B", zoo.Uniform(4*b, 0.01, 3), b},
		{"N=4B+1", zoo.Uniform(4*b+1, 0.01, 4), b},
		{"N=3000", zoo.Uniform(3000, 0.01, 5), b},
		{"sameSquare", zoo.Twins(3000), b},
		{"N=30000/default fanout", zoo.Uniform(30000, 0.01, 6), 0},
	}
	for _, c := range cases {
		var ref *fileLoad
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("raw/Parallelism=%d/%s", par, c.name), func(t *testing.T) {
				if ref == nil {
					ref = loadFile(t, bulk.LoaderPR, c.items, extmem.Options{Fanout: c.fanout, MemoryItems: extmem.DefaultMemoryItems})
				}
				input := slices.Clone(c.items)
				sliceDisk := storage.NewDisk(storage.DefaultBlockSize)
				fromSlice := bulk.PRTreeSlice(storage.NewPager(sliceDisk, -1), c.items, bulk.Options{Fanout: c.fanout, Parallelism: par})
				if !slices.Equal(c.items, input) {
					t.Fatal("PRTreeSlice wrote its input")
				}
				if err := fromSlice.Validate(); err != nil {
					t.Fatal(err)
				}
				if fromSlice.Len() != len(c.items) {
					t.Fatalf("slice load holds %d of %d items", fromSlice.Len(), len(c.items))
				}

				sameTree(t, fromSlice, sliceDisk, ref.tree, ref.disk)
			})
		}
	}
}

// fileLoad is an ItemFile load's tree and the device holding its pages.
type fileLoad struct {
	tree *rtree.Tree
	disk *storage.Disk
}

// loadFile loads items with l's external construction over an input file
// on a store of its own, and fails the test unless every temporary on that
// store was freed.
func loadFile(t *testing.T, l bulk.Loader, items []geom.Item, opt extmem.Options) *fileLoad {
	t.Helper()
	disk, tmp := storage.NewDisk(storage.DefaultBlockSize), storage.NewDisk(storage.DefaultBlockSize)
	tree := extmem.Load(l, storage.NewPager(disk, -1), extmem.NewItemFileFrom(tmp, items), opt)
	if tmp.PagesInUse() != 0 {
		t.Fatalf("the ItemFile load left %d temporary pages", tmp.PagesInUse())
	}
	return &fileLoad{tree, disk}
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

// TestLoadSliceMatchesItemFileLoad: LoadSlice's H, H4 and TGS are the
// external loads without the file. Over an input file on a store of its
// own, extmem.Load writes the same pages, byte for byte and in the same
// order, and the same metadata as LoadSlice, at fanout 16 and the default,
// Parallelism 1 and 2; LoadSlice leaves its input as it found it. The
// external load of each (loader, fanout, input) is built once and compared
// against both. The Hilbert loaders match on tied inputs too; TGS's
// external partition needs records distinct in (coordinate, id), which
// zoo.Uniform's are.
func TestLoadSliceMatchesItemFileLoad(t *testing.T) {
	defer allowParallelism()()
	type input struct {
		name  string
		items []geom.Item
	}
	var inputs []input
	for i, n := range []int{0, 1, 16, 4*16 + 1, 3000, 30000} {
		inputs = append(inputs, input{fmt.Sprintf("N=%d", n), zoo.Uniform(n, 0.01, int64(i+1))})
	}
	tied := []input{{"sameSquare", zoo.Twins(3000)}, {"tied", zoo.Tied(5000)}}
	for _, l := range []bulk.Loader{bulk.LoaderHilbert, bulk.LoaderHilbert4D, bulk.LoaderTGS} {
		cases := inputs
		if l != bulk.LoaderTGS {
			cases = append(slices.Clip(inputs), tied...)
		}
		for _, fanout := range []int{16, 0} {
			for _, c := range cases {
				var ref *fileLoad
				for _, par := range []int{1, 2} {
					t.Run(fmt.Sprintf("%v/Parallelism=%d/fanout=%d/%s", l, par, fanout, c.name), func(t *testing.T) {
						if ref == nil {
							ref = loadFile(t, l, c.items, extmem.Options{Fanout: fanout})
						}
						input := slices.Clone(c.items)
						sliceDisk := storage.NewDisk(storage.DefaultBlockSize)
						fromSlice := bulk.LoadSlice(l, storage.NewPager(sliceDisk, -1), c.items, bulk.Options{Fanout: fanout, Parallelism: par})
						if !slices.Equal(c.items, input) {
							t.Fatal("LoadSlice wrote its input")
						}
						if err := fromSlice.Validate(); err != nil {
							t.Fatal(err)
						}
						if fromSlice.Len() != len(c.items) {
							t.Fatalf("slice load holds %d of %d items", fromSlice.Len(), len(c.items))
						}
						sameTree(t, fromSlice, sliceDisk, ref.tree, ref.disk)
					})
				}
			}
		}
	}
}
