package bulk

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFloat64KeyOrderPreserving(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -2.5, -1, -0.001, 0, 0.001, 1, 2.5, 1e300, math.Inf(1)}
	for i := 0; i < len(vals)-1; i++ {
		if !(Float64Key(vals[i]) < Float64Key(vals[i+1])) {
			t.Errorf("key order broken between %g and %g", vals[i], vals[i+1])
		}
	}
}

func TestFloat64KeyQuick(t *testing.T) {
	prop := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a == b {
			return true // -0 and +0 compare equal as floats but differ in bits; skip
		}
		return (a < b) == (Float64Key(a) < Float64Key(b))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyLessTieBreak(t *testing.T) {
	a := Key{Main: 5, Tie: 1}
	b := Key{Main: 5, Tie: 2}
	if !a.Less(b) || b.Less(a) {
		t.Error("tie-break by Tie failed")
	}
	c := Key{Main: 4, Tie: 9}
	if !c.Less(a) {
		t.Error("Main ordering failed")
	}
	if a.Less(a) {
		t.Error("Less must be irreflexive")
	}
}

// TestSortKeyedMatchesStdSort cross-checks the radix sort against the
// standard library on keys with heavy duplication in Main (exercising the
// Tie digits and pass skipping).
func TestSortKeyedMatchesStdSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, radixMinN - 1, radixMinN, 1000, 10000} {
		a := make([]sortRec, n)
		for i := range a {
			// Few distinct ties as well, so equal keys occur and the
			// positions check stability.
			a[i] = sortRec{main: uint64(rng.Intn(8)) << 40, tie: uint32(rng.Intn(50)) << 9, pos: uint32(i)}
		}
		ref := make([]sortRec, n)
		copy(ref, a)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].key().Less(ref[j].key()) })
		got := sortRecs(a, make([]sortRec, n))
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("n=%d: mismatch at %d: %+v != %+v", n, i, got[i], ref[i])
			}
		}
	}
}

func TestLoaderStrings(t *testing.T) {
	want := map[Loader]string{
		LoaderHilbert: "H", LoaderHilbert4D: "H4", LoaderTGS: "TGS", LoaderPR: "PR",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("loader %d = %q, want %q", l, l.String(), s)
		}
	}
	if Loader(99).String() != "?" {
		t.Error("unknown loader should print ?")
	}
}

func TestTGSHeight(t *testing.T) {
	cases := []struct{ n, fanout, want int }{
		{1, 113, 1}, {113, 113, 1}, {114, 113, 2}, {113 * 113, 113, 2},
		{113*113 + 1, 113, 3}, {5, 2, 3}, {8, 2, 3}, {9, 2, 4},
	}
	for _, c := range cases {
		if got := tgsHeight(c.n, c.fanout); got != c.want {
			t.Errorf("tgsHeight(%d,%d) = %d, want %d", c.n, c.fanout, got, c.want)
		}
	}
}
