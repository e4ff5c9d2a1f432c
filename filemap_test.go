package prtree

import (
	"fmt"
	"path/filepath"
	"testing"

	"prtree/internal/dataset"
	"prtree/internal/geom"
)

// The page cache of a file-backed index holds views of the index file's own
// mapping where the platform has one, and a view has to outlive everything
// the handle does to the file: a mapping that Sync replaced — unmapping the
// old one under the cache and the pin set — made read → Sync → read a
// SIGSEGV. These two tests are that sequence on both kinds of index, under
// a bounded and an unbounded cache; CI runs them under -race too.

var viewCacheCapacities = []int{-1, 48}

func TestSyncKeepsCachedViews(t *testing.T) {
	items := dataset.Western(6000, 31)
	world := geom.ItemsMBR(items)
	for _, capacity := range viewCacheCapacities {
		t.Run(fmt.Sprintf("cache=%d", capacity), func(t *testing.T) {
			tree, err := Create(filepath.Join(t.TempDir(), "sync.pr"), &Options{CacheCapacity: capacity})
			if err != nil {
				t.Fatal(err)
			}
			defer tree.Close()
			if err := tree.BulkLoad(PR, items); err != nil {
				t.Fatal(err)
			}
			tree.inner.PinInternal()
			collect := func(want int) {
				t.Helper()
				got, err := tree.Collect(Window(world))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != want {
					t.Fatalf("%d items, want %d", len(got), want)
				}
			}
			collect(len(items))
			// Each round checkpoints and reads every page again through
			// whatever the cache and the pin set kept from before. (A static
			// tree is read-only, so the file does not grow here; the dynamic
			// index below grows it between checkpoints.)
			for round := 0; round < 3; round++ {
				if err := tree.Sync(); err != nil {
					t.Fatal(err)
				}
				collect(len(items))
			}
			if err := tree.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDynamicSyncKeepsCachedViews(t *testing.T) {
	items := dataset.Western(4000, 37)
	world := geom.ItemsMBR(items)
	for _, capacity := range viewCacheCapacities {
		t.Run(fmt.Sprintf("cache=%d", capacity), func(t *testing.T) {
			d, err := CreateDynamic(filepath.Join(t.TempDir(), "dyn.pr"), &Options{CacheCapacity: capacity})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			const rounds = 4
			per := len(items) / rounds
			for round := 0; round < rounds; round++ {
				for _, it := range items[round*per : (round+1)*per] {
					if err := d.InsertE(it); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.Sync(); err != nil {
					t.Fatal(err)
				}
				if got := len(d.Search(world)); got != (round+1)*per {
					t.Fatalf("round %d: %d items after Sync, want %d", round, got, (round+1)*per)
				}
			}
		})
	}
}
