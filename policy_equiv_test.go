package prtree

import (
	"path/filepath"
	"reflect"
	"testing"

	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/workload"
)

// TestCrossPolicyEquivalence is the page cache's end-to-end correctness
// gate: one index file of the raw page layout, reopened at a sweep of LRU
// cache capacities from pathological (1 page) to unbounded, on the read
// path the platform gives a file-backed tree. Query results must be
// bit-identical to the unbounded-cache reference everywhere — capacity is a
// pure performance knob — and a counted demand read must be exactly a cache
// miss, whichever way the page's bytes arrive.
func TestCrossPolicyEquivalence(t *testing.T) {
	t.Run("layout=raw", func(t *testing.T) {
		items := dataset.Western(4000, 17)
		path := filepath.Join(t.TempDir(), "equiv.pr")
		base, err := Create(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := base.BulkLoad(PR, items); err != nil {
			t.Fatal(err)
		}
		if err := base.Close(); err != nil {
			t.Fatal(err)
		}

		world := geom.ItemsMBR(items)
		queries := workload.Squares(world, 0.01, 25, 18)

		run := func(opts *Options) ([][]Item, IOStats, CacheStats) {
			tree, err := Open(path, opts)
			if err != nil {
				t.Fatalf("open %+v: %v", opts, err)
			}
			var results [][]Item
			for _, q := range queries {
				got, err := tree.Collect(Window(q))
				if err != nil {
					t.Fatalf("collect under %+v: %v", opts, err)
				}
				results = append(results, got)
			}
			io, cs := tree.IOStats(), tree.CacheStats()
			if err := tree.Close(); err != nil {
				t.Fatalf("close under %+v: %v", opts, err)
			}
			return results, io, cs
		}

		ref, _, _ := run(nil)
		for _, capacity := range []int{1, 2, 3, 8, 32, -1} {
			got, io, cs := run(&Options{CacheCapacity: capacity})
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("cap=%d: query results diverge from reference", capacity)
			}
			if io.Reads != cs.Misses {
				t.Fatalf("cap=%d: %d demand reads for %d cache misses — must be one each",
					capacity, io.Reads, cs.Misses)
			}
		}
	})
}
