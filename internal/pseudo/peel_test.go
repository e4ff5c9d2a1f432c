package pseudo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/zoo"
)

// refPeel is the sort-based reference for peel: direction by direction,
// the b records first under the direction's order — key, id, index — among
// those earlier leaves left, as sorted sets of indices, and the remainder.
func refPeel(items []geom.Item, ids []int32, b int) (leaves [4][]int32, rest []int32) {
	rest = slices.Clone(ids)
	for dir := range leaves {
		o := ExtremeOrder(dir)
		slices.SortFunc(rest, func(x, y int32) int {
			a, c := &items[x], &items[y]
			if before(o.key(a), a.ID, x, o.key(c), c.ID, y) {
				return -1
			}
			return 1
		})
		leaves[dir] = slices.Clone(rest[:b])
		slices.Sort(leaves[dir])
		rest = rest[b:]
	}
	slices.Sort(rest)
	return leaves, rest
}

// checkPeel runs peel — or peelFused from thr, when thr is given — over a
// copy of ids and holds the result to refPeel: the same four leaf sets in
// the four slots, and the same remainder behind them.
func checkPeel(t *testing.T, name string, items []geom.Item, ids []int32, b int, thr *[4]float64) {
	t.Helper()
	tr := &Tree{B: b, N: len(items), items: items}
	got := slices.Clone(ids)
	if thr != nil {
		if !tr.peelFused(got, newPeelScratch(b), *thr) {
			t.Fatalf("%s: the fused peel gave up", name)
		}
	} else {
		tr.peel(got, newPeelScratch(b))
	}
	wantLeaves, wantRest := refPeel(items, ids, b)
	for dir, want := range wantLeaves {
		leaf := slices.Clone(got[dir*b : (dir+1)*b])
		slices.Sort(leaf)
		if !slices.Equal(leaf, want) {
			t.Fatalf("%s: %s leaf differs from the sort-based reference", name, PriorityDirs[dir])
		}
	}
	rest := slices.Clone(got[4*b:])
	slices.Sort(rest)
	if !slices.Equal(rest, wantRest) {
		t.Fatalf("%s: remainder differs from the sort-based reference", name)
	}
}

// adversarialInputs returns n records in arrangements that defeat a naive
// selection or a sampled seed: sorted ascending and descending on each
// corner-transform axis, one rectangle repeated under distinct ids (every
// key ties, only the ids separate), a five-value grid, random, and a
// diagonal, on which the records most extreme in xmin are also the most
// extreme in ymin (and xmax in ymax), so each leaf after the first comes
// from behind the one before it.
func adversarialInputs(n int) map[string][]geom.Item {
	out := map[string][]geom.Item{}
	base := zoo.Uniform(n, 0.02, int64(n))
	for axis := 0; axis < 4; axis++ {
		o := axisOrder(axis)
		up := slices.Clone(base)
		slices.SortFunc(up, func(a, b geom.Item) int {
			if o.Less(a, b) {
				return -1
			}
			return 1
		})
		down := slices.Clone(up)
		slices.Reverse(down)
		out[fmt.Sprintf("axis%d-asc", axis)] = up
		out[fmt.Sprintf("axis%d-desc", axis)] = down
	}
	out["all-equal"] = zoo.Copies(n, geom.NewRect(1, 2, 3, 4))
	slices.Reverse(out["all-equal"])
	out["grid"] = zoo.Lattice(n, 5)
	out["random"] = base
	diag := zoo.Diagonal(n, 2)
	rand.New(rand.NewSource(9)).Shuffle(n, func(i, j int) { diag[i], diag[j] = diag[j], diag[i] })
	out["diagonal"] = diag
	return out
}

func identity(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// TestPeelMatchesSortReference holds the window peel to a full sort on
// windows just below the fused-peel floor (four selections) and at and
// just above it (one fused pass), over the input order and a shuffled
// permutation of it, at three leaf capacities.
func TestPeelMatchesSortReference(t *testing.T) {
	for _, n := range []int{fusedMin - 1, fusedMin, fusedMin + 1} {
		for name, items := range adversarialInputs(n) {
			ids := identity(n)
			shuffled := slices.Clone(ids)
			rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, b := range []int{8, 113, 1000} {
				checkPeel(t, fmt.Sprintf("%s n=%d b=%d", name, n, b), items, ids, b, nil)
				checkPeel(t, fmt.Sprintf("%s shuffled n=%d b=%d", name, n, b), items, shuffled, b, nil)
			}
		}
	}
}

// TestPeelFusedSeedFallback forces the seeded pass to fail: thresholds of
// minus infinity admit nothing, so every buffer ends short and the pass
// must run again unseeded — and still match the reference. So must seeds
// that admit one leaf's worth a direction, which is too few behind an
// earlier leaf; seeds at the exact boundary key admit every record the
// leaves need and must not fall back.
func TestPeelFusedSeedFallback(t *testing.T) {
	n, b := 3*fusedMin, 113
	ninf := math.Inf(-1)
	tight := [4]float64{ninf, ninf, ninf, ninf}
	for name, items := range adversarialInputs(n) {
		ids := identity(n)
		tr := &Tree{B: b, N: n, items: items}
		if tr.scanCands(slices.Clone(ids), newPeelScratch(b), tight) {
			t.Fatalf("%s: a seed that admits nothing filled the buffers", name)
		}
		checkPeel(t, name+" forced fallback", items, ids, b, &tight)

		// Seeds at the key ending each direction's (d+1)·b most extreme
		// records admit all they need; seeds at the key ending its b most
		// extreme admit too few for d ≥ 1 wherever leaves overlap, as on
		// the diagonal, and must fall back.
		var exact, oneLeaf [4]float64
		for d := range exact {
			keys := make([]float64, n)
			o := ExtremeOrder(d)
			for i := range items {
				keys[i] = o.key(&items[i])
			}
			slices.Sort(keys)
			exact[d], oneLeaf[d] = keys[(d+1)*b-1], keys[b-1]
		}
		if !tr.scanCands(slices.Clone(ids), newPeelScratch(b), exact) {
			t.Fatalf("%s: seeds at the boundary keys fell back", name)
		}
		checkPeel(t, name+" one-leaf seeds", items, ids, b, &oneLeaf)
		checkPeel(t, name+" boundary seeds", items, ids, b, &exact)
	}
}

// TestPartitionsMatchSortReference holds both two-way partitions and the
// selection built on them to a full sort: after a partition around any
// pivot, the records before the pivot are exactly the ones the sort puts
// before it; after selectK, ids[k] is the record of rank k and ids[:k]
// the k before it. Inputs are the adversarial arrangements, under every
// order the construction selects by.
func TestPartitionsMatchSortReference(t *testing.T) {
	n := 2*sampleMin + 3
	for name, items := range adversarialInputs(n) {
		for _, o := range buildOrders() {
			sorted := identity(n)
			slices.SortFunc(sorted, func(x, y int32) int {
				a, c := &items[x], &items[y]
				if before(o.key(a), a.ID, x, o.key(c), c.ID, y) {
					return -1
				}
				return 1
			})
			rank := make([]int, n)
			for r, v := range sorted {
				rank[v] = r
			}
			for _, part := range []func([]geom.Item, []int32, int, int, int, Order) int{partitionFew, partitionHalf} {
				for _, pivot := range []int{0, n / 3, n - 1} {
					ids := identity(n)
					pv := ids[pivot]
					j := part(items, ids, 0, n, pivot, o)
					if ids[j] != pv || j != rank[pv] {
						t.Fatalf("%s %+v: pivot of rank %d left at %d", name, o, rank[pv], j)
					}
					for i, v := range ids {
						if (i < j) != (rank[v] < j) {
							t.Fatalf("%s %+v: record of rank %d on the wrong side of %d", name, o, rank[v], j)
						}
					}
				}
			}
			for _, k := range []int{1, 113, n / 2, n - 114} {
				ids := identity(n)
				selectK(items, ids, k, o)
				if rank[ids[k]] != k {
					t.Fatalf("%s %+v: ids[%d] holds rank %d", name, o, k, rank[ids[k]])
				}
				for _, v := range ids[:k] {
					if rank[v] >= k {
						t.Fatalf("%s %+v k=%d: rank %d before the cut", name, o, k, rank[v])
					}
				}
			}
		}
	}
}
