package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"prtree"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/storage"
	"prtree/internal/workload"
)

func buildSet(t *testing.T, items []geom.Item, shards int) *Set {
	t.Helper()
	dir := t.TempDir()
	if _, err := Build(dir, items, BuildOptions{Shards: shards}); err != nil {
		t.Fatal(err)
	}
	set, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	return set
}

func assertSameItems(t *testing.T, label string, got, want []geom.Item) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: got %d items %v..., want %d items %v...", label, len(got), head(got), len(want), head(want))
	}
}

func head(items []geom.Item) []geom.Item {
	if len(items) > 3 {
		return items[:3]
	}
	return items
}

func TestBuildManifest(t *testing.T) {
	items := dataset.Western(500, 9)
	dir := t.TempDir()
	man, err := Build(dir, items, BuildOptions{Shards: 3, Loader: prtree.PR})
	if err != nil {
		t.Fatal(err)
	}
	if man.Partition != "hilbert" || man.Loader != "PR" || len(man.Shards) != 3 {
		t.Fatalf("manifest %+v", man)
	}
	total := 0
	for _, si := range man.Shards {
		if si.Items == 0 {
			t.Fatalf("empty shard in %+v", man.Shards)
		}
		total += si.Items
	}
	if total != len(items) {
		t.Fatalf("shards hold %d items, want %d", total, len(items))
	}
	set, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if got := set.Manifest(); got.Loader != "PR" || got.Items != len(items) {
		t.Fatalf("reopened manifest %+v", got)
	}
}

// TestBuildSyncsDirectory: a set is durable once Build returns. Each shard
// file's creation syncs the directory, and the manifest is fsynced under a
// temporary name, renamed into place and the directory synced again, so
// Build of three shards syncs it four times and leaves no temporary.
func TestBuildSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	before := storage.DirSyncs()
	if _, err := Build(dir, dataset.Western(500, 9), BuildOptions{Shards: 3, Loader: prtree.PR}); err != nil {
		t.Fatal(err)
	}
	if got := storage.DirSyncs() - before; got != 4 {
		t.Errorf("Build synced the directory %d times, want 4", got)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName+".tmp")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("temporary manifest: %v", err)
	}
}

// TestOpenGridManifest: a set whose manifest names the grid partition,
// which earlier builds could write, still opens and answers in full.
func TestOpenGridManifest(t *testing.T) {
	items := dataset.Western(500, 9)
	dir := t.TempDir()
	man, err := Build(dir, items, BuildOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	man.Partition = "grid"
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	set, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	got, _, err := set.Window(context.Background(), set.MBR(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if set.Manifest().Partition != "grid" || len(got) != len(items) {
		t.Fatalf("grid manifest: partition %q, %d of %d items", set.Manifest().Partition, len(got), len(items))
	}
}

// TestOpenRejectsManifest: Open opens only what a manifest of its own
// directory can name — each shard a distinct file inside it — and only if
// the files hold the items the manifest counts. The escaping names point at
// a real shard file of another set, so only the name check stops them.
func TestOpenRejectsManifest(t *testing.T) {
	root := t.TempDir()
	dir, other := filepath.Join(root, "set"), filepath.Join(root, "x")
	items := dataset.Western(500, 9)
	man, err := Build(dir, items, BuildOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(other, items, BuildOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(m *Manifest)
		want string
	}{
		{"relative escape", func(m *Manifest) { m.Shards[0].File = "../x/shard-000.pr" }, "outside the set's directory"},
		{"absolute", func(m *Manifest) { m.Shards[0].File = filepath.Join(other, "shard-000.pr") }, "outside the set's directory"},
		{"empty", func(m *Manifest) { m.Shards[1].File = "" }, "outside the set's directory"},
		{"repeated", func(m *Manifest) { m.Shards[1] = m.Shards[0] }, "twice"},
		{"repeated after cleaning", func(m *Manifest) { m.Shards[1].File = "./" + m.Shards[0].File }, "twice"},
		{"shard count", func(m *Manifest) { m.Shards[1].Items++; m.Items++ }, "holds"},
		{"total", func(m *Manifest) { m.Items-- }, "shards hold"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := *man
			m.Shards = slices.Clone(man.Shards)
			tc.edit(&m)
			if err := writeManifest(dir, &m); err != nil {
				t.Fatal(err)
			}
			set, err := Open(dir, OpenOptions{})
			if err == nil {
				set.Close()
				t.Fatalf("manifest %+v opened", m)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got error %v, want one saying %q", err, tc.want)
			}
		})
	}
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	set, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("the built manifest: %v", err)
	}
	set.Close()
}

func TestBuildRejects(t *testing.T) {
	dir := t.TempDir()
	if _, err := Build(dir, nil, BuildOptions{}); err == nil {
		t.Error("empty dataset: want error")
	}
	items := dataset.Western(100, 1)
	// More shards than items clamps rather than producing empty shards.
	man, err := Build(dir, items[:3], BuildOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != 3 {
		t.Errorf("got %d shards for 3 items, want 3", len(man.Shards))
	}
	// An invalid rectangle fails the build before anything is written, and
	// the error names its index in the caller's slice.
	bad := slices.Clone(items)
	bad[57].Rect.MaxY = math.NaN()
	badDir := filepath.Join(t.TempDir(), "set")
	want := fmt.Sprintf("item 57 (id %d) has invalid rectangle", bad[57].ID)
	if _, err := Build(badDir, bad, BuildOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("NaN rectangle: got error %v, want one naming %q", err, want)
	}
	if _, err := os.Stat(badDir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed build left its directory behind: %v", err)
	}
}

// TestSharedCacheBudget checks the global CachePages budget is split
// across shards: summed capacity never exceeds the budget.
func TestSharedCacheBudget(t *testing.T) {
	items := dataset.Western(2000, 3)
	dir := t.TempDir()
	if _, err := Build(dir, items, BuildOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	// A budget below one page per shard cannot be split without exceeding
	// it, so Open refuses it.
	if set, err := Open(dir, OpenOptions{CachePages: 3}); err == nil {
		got := set.Stats().Cache.Capacity
		set.Close()
		t.Fatalf("budget 3 over 4 shards opened with summed capacity %d, want an error", got)
	}
	set, err := Open(dir, OpenOptions{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	st := set.Stats()
	if st.Cache.Capacity != 8 {
		t.Errorf("summed cache capacity %d, want 8", st.Cache.Capacity)
	}
	// Queries must still work under the tight budget and count IO.
	if _, _, err := set.Window(context.Background(), set.MBR(), 0); err != nil {
		t.Fatal(err)
	}
	if st = set.Stats(); st.IO.Reads == 0 {
		t.Error("no reads counted under a bounded cache")
	}
}

// TestSetDeadline checks an expired context aborts scatter-gather through
// the query executor's poll points.
func TestSetDeadline(t *testing.T) {
	items := dataset.Western(2000, 5)
	set := buildSet(t, items, 4)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := set.Window(ctx, set.MBR(), 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("window: got %v, want context.DeadlineExceeded", err)
	}
	if _, _, err := set.Nearest(ctx, 0, 0, 10); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("nearest: got %v, want context.DeadlineExceeded", err)
	}
}

// TestShardingTax measures what cutting the set into Hilbert runs costs the
// paper's yardstick. A leaf is read exactly when its MBR meets the window,
// so on the served workloads' window sizes (0.01 % and 0.25 % of the
// world) the four shards' summed leaf reads may exceed those of one
// PR-tree over the same items only by the leaves the cuts add: under 3 %.
// The items are the repository benchmark's 216k rectangles; at a sixth of
// that the cuts' leaves are a larger share, and the tax reads 6-9 %.
func TestShardingTax(t *testing.T) {
	items := dataset.Western(300_000, 2004)
	world := geom.ItemsMBR(items)
	single := prtree.BulkWith(prtree.PR, items, nil)
	var shards []*prtree.Tree
	for _, part := range partitionHilbert(items, 4, 1) {
		shards = append(shards, prtree.BulkWith(prtree.PR, gather(items, part), nil))
	}
	leaves := func(tree *prtree.Tree, q geom.Rect) int {
		var st prtree.QueryStats
		if _, err := tree.Count(prtree.Window(q).WithStats(&st)); err != nil {
			t.Fatal(err)
		}
		return st.LeavesVisited
	}
	for _, area := range []float64{0.0001, 0.0025} {
		one, sum := 0, 0
		for _, q := range workload.Squares(world, area, 1024, 7) {
			one += leaves(single, q)
			for _, s := range shards {
				sum += leaves(s, q)
			}
		}
		tax := float64(sum)/float64(one) - 1
		t.Logf("area %g: one tree reads %d leaves, four shards %d (%+.2f %%)", area, one, sum, 100*tax)
		if tax >= 0.03 {
			t.Errorf("area %g: four shards read %d leaves, one tree %d: tax %.2f %%, want under 3 %%", area, sum, one, 100*tax)
		}
	}
}
