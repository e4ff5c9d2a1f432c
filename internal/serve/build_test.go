package serve

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"prtree"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/hilbert"
)

// dirFiles reads every regular file of dir.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestBuildParallelismByteIdentical: the worker budget decides how many
// shards load at once and how far each load's kd recursion forks, never
// what is written — shard files, their logs and the manifest are the same
// bytes at every setting. Shards of ~7k items put the root of each build
// above the fork threshold.
func TestBuildParallelismByteIdentical(t *testing.T) {
	// Let Parallelism 8 mean 4 shards at once with 2 workers inside each.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	items := dataset.Western(40000, 17)
	var want map[string][]byte
	for _, p := range []int{1, 2, 8} {
		dir := t.TempDir()
		if _, err := Build(dir, items, BuildOptions{Loader: prtree.PR, Parallelism: p}); err != nil {
			t.Fatal(err)
		}
		got := dirFiles(t, dir)
		if p == 1 {
			want = got
			if len(want) != 9 { // 4 shards, 4 logs, the manifest
				t.Fatalf("build left %d files", len(want))
			}
			continue
		}
		if len(got) != len(want) {
			t.Errorf("Parallelism=%d: %d files, serial build has %d", p, len(got), len(want))
		}
		for name, data := range want {
			if !bytes.Equal(got[name], data) {
				t.Errorf("Parallelism=%d: %s differs from the serial build", p, name)
			}
		}
	}
}

// TestBuildFailureLeavesNothing: a directory squatting on a shard's path
// fails that shard while the others build beside it. Whatever order the
// workers finish in, Build reports the lowest failing shard, removes every
// file it created and writes no manifest.
func TestBuildFailureLeavesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	items := dataset.Western(2000, 23)
	for _, tc := range []struct {
		squat []int
		want  string
	}{
		{[]int{2}, "shard 2:"},
		{[]int{3, 1}, "shard 1:"},
	} {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("squat=%v/Parallelism=%d", tc.squat, p), func(t *testing.T) {
				dir := t.TempDir()
				for _, i := range tc.squat {
					if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf("shard-%03d.pr", i)), 0o755); err != nil {
						t.Fatal(err)
					}
				}
				_, err := Build(dir, items, BuildOptions{Shards: 4, Parallelism: p})
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("got error %v, want one naming %q", err, tc.want)
				}
				ents, rerr := os.ReadDir(dir)
				if rerr != nil {
					t.Fatal(rerr)
				}
				if len(ents) != len(tc.squat) {
					t.Errorf("failed build left %v, want only the %d squatting directories", ents, len(tc.squat))
				}
			})
		}
	}
}

// BenchmarkShardBuild times what the repository benchmark's serve
// workloads pay at set-up: the benchmark's dataset cut into 4 PR-loaded
// shards, serial and on every core.
func BenchmarkShardBuild(b *testing.B) {
	items := dataset.Western(300_000, 2004)
	for _, p := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("Parallelism=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(b.TempDir(), items, BuildOptions{Loader: prtree.PR, Parallelism: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPartitionHilbertMatchesSort: each run of the partition holds exactly
// the items of its run of a comparison sort by (key, ID), items equal in
// both in input order, lists them in bucket order, and is the same list at
// every worker budget. The crowded case puts every cut inside one bucket of
// thousands of records; at 40,000 items the keying and scatter passes cut
// the input into two blocks.
func TestPartitionHilbertMatchesSort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(5))
	at := func(x, y float64, id uint32) geom.Item { return geom.Item{Rect: geom.PointRect(x, y), ID: id} }
	gen := func(n int, f func(i int) geom.Item) []geom.Item {
		items := make([]geom.Item, n)
		for i := range items {
			items[i] = f(i)
		}
		return items
	}
	for _, tc := range []struct {
		name  string
		items []geom.Item
	}{
		{"one", gen(1, func(int) geom.Item { return at(1, 2, 3) })},
		{"distinct", gen(40000, func(int) geom.Item { return at(rng.Float64(), rng.Float64(), rng.Uint32()) })},
		{"equal keys", gen(5000, func(int) geom.Item { return at(1, 1, rng.Uint32()) })},
		{"equal key and id", gen(5000, func(int) geom.Item { return at(float64(rng.Intn(7)), 0, uint32(rng.Intn(5))) })},
		{"crowded bucket", gen(40000, func(i int) geom.Item {
			if i%4000 == 0 { // a few spread points span the world [0, 1]^2
				return at(float64(i%8000)/4000, float64(i/8000%2), rng.Uint32())
			}
			// One bucket is a 256-cell square of the 65,536-cell side, so
			// this corner of the world's middle holds every other item.
			return at(0.5+0.003*rng.Float64(), 0.5+0.003*rng.Float64(), uint32(rng.Intn(100)))
		})},
	} {
		items := tc.items
		q := hilbert.NewQuantizer2D(geom.ItemsMBR(items), hilbertBits)
		keys := make([]uint32, len(items))
		ref := make([]uint32, len(items))
		for i, it := range items {
			keys[i] = uint32(q.CenterKey(it.Rect))
			ref[i] = uint32(i)
		}
		slices.SortStableFunc(ref, func(a, b uint32) int {
			return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(items[a].ID, items[b].ID))
		})
		if tc.name == "crowded bucket" {
			if lo, hi := keys[ref[len(ref)/8]]>>(32-bucketBits), keys[ref[len(ref)*7/8]]>>(32-bucketBits); lo != hi {
				t.Fatalf("crowded bucket: the middle three quarters span buckets %d to %d", lo, hi)
			}
		}
		for _, n := range []int{1, 2, 3, 4, 7} {
			if n > len(items) {
				continue
			}
			var serial [][]uint32
			for _, p := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s/n=%d/Parallelism=%d", tc.name, n, p)
				got := partitionHilbert(items, n, p)
				if len(got) != n {
					t.Fatalf("%s: %d runs, want %d", name, len(got), n)
				}
				if p == 1 {
					serial = got
				} else if !slices.EqualFunc(got, serial, slices.Equal) {
					t.Errorf("%s: runs differ from the serial partition's", name)
				}
				rest := ref
				for i, run := range got {
					size := len(items) / n
					if i < len(items)%n {
						size++
					}
					want := slices.Clone(rest[:size])
					rest = rest[size:]
					slices.Sort(want)
					have := slices.Sorted(slices.Values(run))
					if !slices.Equal(have, want) {
						t.Fatalf("%s: run %d holds %d items, not the %d of the sort's run %d", name, i, len(have), len(want), i)
					}
					if !slices.IsSortedFunc(run, func(a, b uint32) int { return cmp.Compare(keys[a]>>(32-bucketBits), keys[b]>>(32-bucketBits)) }) {
						t.Errorf("%s: run %d is not in bucket order", name, i)
					}
				}
			}
		}
	}
}

// BenchmarkPartitionHilbert times the partition alone — keys, bucket
// counts, scatter and the sorts of the buckets the cuts fall in — over the
// repository benchmark's dataset, serial and on every core.
func BenchmarkPartitionHilbert(b *testing.B) {
	items := dataset.Western(300_000, 2004)
	for _, p := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("Parallelism=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				partitionHilbert(items, 4, p)
			}
		})
	}
}
