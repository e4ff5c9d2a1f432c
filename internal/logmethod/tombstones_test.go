package logmethod

import (
	"maps"
	"math/rand"
	"runtime"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/zoo"
)

// TestTombstonesMatchMap drives the two-map set and a plain map through
// the same random adds, revives and re-adds — of items that share their
// ids three to one, across many folds of the delta into the base — and
// requires the same contents throughout, and that a set handed out earlier
// never changes.
func TestTombstonesMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	item := func(k int) geom.Item {
		return geom.Item{Rect: geom.NewRect(float64(k), 0, float64(k)+1, 1), ID: uint32(k / 3)}
	}
	var ts tombstones
	ref := make(map[geom.Item]bool)
	type snap struct {
		ts  tombstones
		ref map[geom.Item]bool
	}
	var snaps []snap
	check := func(ts tombstones, ref map[geom.Item]bool) {
		t.Helper()
		if ts.len() != len(ref) {
			t.Fatalf("len %d, want %d", ts.len(), len(ref))
		}
		n := 0
		ts.each(func(it geom.Item) {
			n++
			if !ref[it] {
				t.Fatalf("each yields %v, which the map has not", it)
			}
		})
		if n != len(ref) {
			t.Fatalf("each yields %d entries, want %d", n, len(ref))
		}
		for k := range 600 {
			if it := item(k); ts.has(it) != ref[it] {
				t.Fatalf("has(%v) = %v, want %v", it, ts.has(it), ref[it])
			}
		}
	}
	for step := 0; step < 6000; step++ {
		it := item(rng.Intn(600))
		if ref[it] {
			ts = ts.remove(it)
			delete(ref, it)
		} else {
			ts = ts.add(it)
			ref[it] = true
		}
		if step%500 == 0 {
			check(ts, ref)
			snaps = append(snaps, snap{ts, maps.Clone(ref)})
		}
	}
	check(ts, ref)
	for _, s := range snaps {
		check(s.ts, s.ref) // published sets are immutable
	}
}

// TestDeleteAtManyTombstonesAllocatesLittle: a tombstone used to copy the
// whole tombstone map — 394 KB at the 4,500 tombstones the benchmark's
// churn ends with, more CPU than the durable commit beside it. The set is
// now copied in amortised small pieces; a delete must stay under 16 KB on
// average, revives (re-inserts of a dead id) included.
func TestDeleteAtManyTombstonesAllocatesLittle(t *testing.T) {
	tr := newTree(64)
	items := zoo.Uniform(12000, 0.02, 21)
	for _, it := range items {
		tr.Insert(it)
	}
	tr.Flush() // everything in one level: deletes are tombstones
	const before, measured = 4500, 400
	for _, it := range items[:before] {
		if !tr.Delete(it) {
			t.Fatalf("item %d not deleted", it.ID)
		}
	}
	if got := tr.st.Load().dead.len(); got != before {
		t.Fatalf("%d tombstones outstanding, want %d (a rebuild ran?)", got, before)
	}
	live := append([]geom.Item(nil), items[before+measured:]...)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, it := range items[before : before+measured] {
		tr.Delete(it)
		if i%4 == 0 {
			tr.Insert(items[i]) // revive an old tombstone
			live = append(live, items[i])
		}
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / (measured + measured/4); per >= 16<<10 {
		t.Errorf("a tombstone at %d outstanding allocates %d bytes on average, want < 16 KB", before, per)
	} else {
		t.Logf("%d bytes per tombstone change at %d outstanding", per, before)
	}
	w := geom.NewRect(0, 0, 2, 2)
	if err := zoo.Expect(live, zoo.Query{Rect: w}).CheckScan(func(f func(geom.Item) bool) { tr.RunWindow(w, false, f, rtree.RunOptions{}) }); err != nil {
		t.Fatalf("query %v: %v", w, err)
	}
}
