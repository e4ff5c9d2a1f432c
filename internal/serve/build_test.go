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

// TestSortedByMatchesComparisonSort: the radix sort orders by (key, ID)
// exactly as a comparison sort does, keeps records equal in both in input
// order, and handles the empty and the one-record input.
func TestSortedByMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name      string
		n         int
		keys, ids int64 // keys and ids drawn from [0, keys) and [0, ids)
	}{
		{"empty", 0, 1, 1},
		{"one", 1, 1, 1},
		{"distinct", 5000, 1 << 32, 1 << 32},
		{"equal keys", 5000, 1, 1 << 32},
		{"equal key and id", 5000, 7, 5},
	} {
		items := make([]geom.Item, tc.n)
		keys := make([]uint32, tc.n)
		for i := range items {
			// The rectangle records the input position, so stability shows.
			items[i] = geom.Item{Rect: geom.NewRect(float64(i), 0, float64(i), 0), ID: uint32(rng.Int63n(tc.ids))}
			keys[i] = uint32(rng.Int63n(tc.keys))
		}
		type rec struct {
			key uint32
			it  geom.Item
		}
		want := make([]rec, tc.n)
		for i := range items {
			want[i] = rec{keys[i], items[i]}
		}
		slices.SortStableFunc(want, func(a, b rec) int {
			return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.it.ID, b.it.ID))
		})
		got := sortedBy(items, keys)
		if len(got) != tc.n {
			t.Fatalf("%s: %d items back, want %d", tc.name, len(got), tc.n)
		}
		for i := range want {
			if got[i] != want[i].it {
				t.Fatalf("%s: position %d holds %v, comparison sort has %v", tc.name, i, got[i], want[i].it)
			}
		}
	}
}

// BenchmarkPartitionHilbert times the partition alone — keys, sort and
// gather — over the repository benchmark's dataset, serial and on every
// core.
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
