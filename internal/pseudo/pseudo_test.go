package pseudo

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"prtree/internal/geom"
	"prtree/internal/zoo"
)

// buildOrders lists every order the construction selects under: the four
// priority directions and the four kd axes.
func buildOrders() []Order {
	var out []Order
	for d := 0; d < 4; d++ {
		out = append(out, ExtremeOrder(d), axisOrder(d))
	}
	return out
}

// checkSelect runs selectK over the identity permutation of items and
// compares with a full sort: once each side of the cut is sorted, the items
// the permutation names must read as the sorted input, so ids[:k] names
// exactly the k first and no index was lost or duplicated. items itself
// must come back untouched.
func checkSelect(t *testing.T, items []geom.Item, k int, o Order) {
	t.Helper()
	byOrder := func(s []geom.Item) {
		sort.SliceStable(s, func(i, j int) bool { return o.Less(s[i], s[j]) })
	}
	input := slices.Clone(items)
	ids := make([]int32, len(items))
	for i := range ids {
		ids[i] = int32(i)
	}
	selectK(items, ids, k, o)
	if !slices.Equal(items, input) {
		t.Fatalf("order %+v n=%d k=%d: selectK wrote its input", o, len(items), k)
	}
	got := make([]geom.Item, len(ids))
	for i, id := range ids {
		got[i] = items[id]
	}
	cut := min(max(k, 0), len(got))
	byOrder(got[:cut])
	byOrder(got[cut:])
	want := slices.Clone(items)
	byOrder(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %+v n=%d k=%d: position %d holds item %d, full sort has item %d",
				o, len(items), k, i, got[i].ID, want[i].ID)
		}
	}
}

func TestSelectKPartitions(t *testing.T) {
	for i, o := range buildOrders() {
		checkSelect(t, zoo.Uniform(500, 0.02, int64(i+1)), 100, o)
		checkSelect(t, zoo.Lattice(500, int64(i+1)), 100, o)
	}
}

func TestSelectKQuick(t *testing.T) {
	orders := buildOrders()
	prop := func(seed int64, kRaw, oRaw uint8, dup bool) bool {
		items := zoo.Uniform(64, 0.02, seed)
		if dup {
			items = zoo.Lattice(64, seed)
		}
		checkSelect(t, items, int(kRaw)%65, orders[int(oRaw)%len(orders)])
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestSelectKEdges(t *testing.T) {
	same := zoo.Copies(40, geom.NewRect(1, 2, 3, 4)) // one rectangle, distinct ids
	slices.Reverse(same)
	twins := zoo.Copies(40, geom.NewRect(1, 2, 3, 4)) // all-equal keys: ids repeat too
	for i := range twins {
		twins[i].ID %= 2
	}
	inputs := [][]geom.Item{zoo.Uniform(10, 0.02, 1), zoo.Lattice(40, 2), same, twins, zoo.Uniform(1, 0.02, 3), nil}
	for _, o := range buildOrders() {
		for _, items := range inputs {
			n := len(items)
			for _, k := range []int{-1, 0, 1, n / 2, n - 1, n, n + 5} {
				checkSelect(t, items, k, o)
			}
		}
	}
}

// TestSelectKSampled runs windows large enough for sampled pivots, four
// times the threshold, under every order, on the input shapes that defeat
// a naive pivot: sorted, reverse-sorted and organ-pipe arrangements under
// the order selected by, and one key shared by every record.
func TestSelectKSampled(t *testing.T) {
	n := 4 * sampleMin
	same := zoo.Copies(n, geom.NewRect(1, 2, 3, 4))
	slices.Reverse(same)
	for i, o := range buildOrders() {
		sorted := zoo.Uniform(n, 0.02, int64(i+1))
		slices.SortFunc(sorted, func(a, b geom.Item) int {
			if o.Less(a, b) {
				return -1
			}
			return 1
		})
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		pipe := make([]geom.Item, 0, n) // up the even ranks, down the odd ones
		for j := 0; j < n; j += 2 {
			pipe = append(pipe, sorted[j])
		}
		for j := n - 1 - n%2; j > 0; j -= 2 {
			pipe = append(pipe, sorted[j])
		}
		for _, items := range [][]geom.Item{zoo.Uniform(n, 0.02, int64(i+9)), sorted, reversed, pipe, same} {
			for _, k := range []int{113, n / 2, n - 113} {
				checkSelect(t, items, k, o)
			}
		}
	}
}

// TestBuildWorkersIdentical: the kd recursion forks under the worker
// budget, and the tree must not depend on it — same leaf groups, in the
// same order, with the same members in the same positions. Every build
// reads the one input, which none of them writes.
func TestBuildWorkersIdentical(t *testing.T) {
	// Let workers=8 fork three levels deep even on a small machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, tc := range []struct {
		name  string
		items []geom.Item
		b     int
	}{
		{"random", zoo.Uniform(20000, 0.02, 7), 64},
		{"duplicates", zoo.Lattice(10000, 8), 113},
	} {
		input := slices.Clone(tc.items)
		var want []LeafGroup
		for _, workers := range []int{1, 2, 8} {
			tr := Build(tc.items, tc.b, true, workers)
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			got := tr.Leaves()
			if workers == 1 {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d leaf groups, serial build has %d", tc.name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i].Priority != want[i].Priority || got[i].Dir != want[i].Dir || !slices.Equal(got[i].Items, want[i].Items) {
					t.Fatalf("%s workers=%d: leaf group %d differs from the serial build", tc.name, workers, i)
				}
			}
		}
		if !slices.Equal(tc.items, input) {
			t.Fatalf("%s: a build wrote its input", tc.name)
		}
	}
}

func TestBuildSizes(t *testing.T) {
	for _, tc := range []struct {
		n, b int
	}{
		{1, 8}, {8, 8}, {9, 8}, {20, 8}, {32, 8}, {33, 8},
		{100, 8}, {1000, 8}, {5000, 16}, {200, 1}, {500, 113},
	} {
		items := zoo.Uniform(tc.n, 0.02, int64(tc.n))
		tr := Build(items, tc.b, false, 1)
		if tr.N != tc.n {
			t.Fatalf("n=%d b=%d: N=%d", tc.n, tc.b, tr.N)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d b=%d: %v", tc.n, tc.b, err)
		}
		if got := len(tr.Items()); got != tc.n {
			t.Fatalf("n=%d b=%d: Items()=%d", tc.n, tc.b, got)
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	tr := Build(nil, 8, false, 1)
	if tr.Root != nil || tr.N != 0 {
		t.Error("empty build should have nil root")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if st := tr.Query(geom.NewRect(0, 0, 1, 1), nil); st.Results != 0 {
		t.Error("empty query should find nothing")
	}
}

func TestBuildRoundToBFillsLeaves(t *testing.T) {
	items := zoo.Uniform(113*40, 0.02, 42)
	tr := Build(items, 113, true, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	leaves := tr.Leaves()
	full := 0
	total := 0
	for _, lg := range leaves {
		total += len(lg.Items)
		if len(lg.Items) == 113 {
			full++
		}
	}
	if total != len(items) {
		t.Fatalf("leaves hold %d of %d items", total, len(items))
	}
	if frac := float64(full) / float64(len(leaves)); frac < 0.9 {
		t.Errorf("only %.2f of leaves full with round-to-B", frac)
	}
}

func TestLeavesPartitionItems(t *testing.T) {
	items := zoo.Uniform(3000, 0.02, 7)
	tr := Build(items, 16, false, 1)
	var all []geom.Item
	for _, lg := range tr.Leaves() {
		if len(lg.Items) == 0 || len(lg.Items) > 16 {
			t.Fatalf("leaf size %d", len(lg.Items))
		}
		all = append(all, lg.Items...)
	}
	if !slices.Equal(zoo.Sorted(all), items) {
		t.Fatalf("leaves hold %d items, not the %d built, each once", len(all), len(items))
	}
}

func TestPriorityLeavesAreExtreme(t *testing.T) {
	items := zoo.Uniform(2000, 0.02, 8)
	tr := Build(items, 32, false, 1)
	root := tr.Root
	if root.IsLeaf() {
		t.Fatal("root should be internal")
	}
	// The root's xmin priority leaf must contain the B globally smallest
	// xmin rectangles.
	sorted := append([]geom.Item{}, items...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Rect.MinX != sorted[j].Rect.MinX {
			return sorted[i].Rect.MinX < sorted[j].Rect.MinX
		}
		return sorted[i].ID < sorted[j].ID
	})
	want := make(map[uint32]bool)
	for _, it := range sorted[:32] {
		want[it.ID] = true
	}
	for _, it := range tr.Gather(nil, root.Priority[0]) {
		if !want[it.ID] {
			t.Fatalf("root xmin leaf holds non-extreme item %d", it.ID)
		}
	}
	if len(root.Priority[0]) != 32 {
		t.Fatalf("root xmin leaf has %d items", len(root.Priority[0]))
	}
}

func TestQueryEarlyStop(t *testing.T) {
	items := zoo.Uniform(1000, 0.02, 11)
	tr := Build(items, 16, false, 1)
	count := 0
	tr.Query(geom.NewRect(0, 0, 2, 2), func(geom.Item) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop after %d", count)
	}
}

// TestLemma2QueryBound checks the paper's central claim empirically: a
// window query on a pseudo-PR-tree over N rectangles visits
// O(sqrt(N/B) + T/B) blocks. We use zero-output line probes on uniform
// points so T = 0 and the bound is purely c*sqrt(N/B).
func TestLemma2QueryBound(t *testing.T) {
	b := 16
	for _, n := range []int{1000, 4000, 16000} {
		rng := rand.New(rand.NewSource(int64(n)))
		items := make([]geom.Item, n)
		for i := range items {
			// Points on a jittered grid, off the probe lines.
			items[i] = geom.Item{Rect: geom.PointRect(rng.Float64(), math.Floor(rng.Float64()*1000)/1000+0.0003), ID: uint32(i)}
		}
		tr := Build(items, b, true, 1)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		bound := 10*math.Sqrt(float64(n)/float64(b)) + 10
		worst := 0
		for i := 0; i < 50; i++ {
			y := math.Floor(rng.Float64()*1000)/1000 + 0.0001 // between grid rows
			st := tr.Query(geom.NewRect(0, y, 1, y+0.0001), nil)
			if st.Results != 0 {
				t.Fatalf("probe hit %d results; dataset construction broken", st.Results)
			}
			if v := st.LeavesVisited + st.InternalVisited; v > worst {
				worst = v
			}
		}
		if float64(worst) > bound {
			t.Errorf("n=%d: worst zero-output query visited %d blocks, bound %d",
				n, worst, int(bound))
		}
	}
}

func TestBuildManyDuplicates(t *testing.T) {
	items := zoo.Copies(500, geom.NewRect(0.5, 0.5, 0.6, 0.6))
	tr := Build(items, 8, true, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	st := tr.Query(geom.NewRect(0.55, 0.55, 0.56, 0.56), nil)
	if st.Results != 500 {
		t.Errorf("duplicates query found %d", st.Results)
	}
}

func TestBuildBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("B=0 should panic")
		}
	}()
	Build(zoo.Uniform(10, 0.02, 1), 0, false, 1)
}

func TestBoundsCoverSubtrees(t *testing.T) {
	items := zoo.Uniform(2000, 0.02, 12)
	tr := Build(items, 16, false, 1)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		for _, it := range tr.Gather(nil, collect(n, nil)) {
			if !n.Bounds.Contains(it.Rect) {
				t.Fatalf("bounds %v miss item %v", n.Bounds, it.Rect)
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tr.Root)
}
