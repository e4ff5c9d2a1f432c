package logmethod

import (
	"math/rand"
	"runtime"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/zoo"
)

// TestTombstonesMatchMap drives the two-map set and a plain map through
// the same random adds, revives and re-adds — across many folds of the
// delta into the base — and requires the same contents throughout, and
// that a set handed out earlier never changes.
func TestTombstonesMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rect := func(id uint32) geom.Rect { return geom.NewRect(float64(id), 0, float64(id)+1, 1) }
	var ts tombstones
	ref := make(map[uint32]geom.Rect)
	type snap struct {
		ts  tombstones
		ref map[uint32]geom.Rect
	}
	var snaps []snap
	check := func(ts tombstones, ref map[uint32]geom.Rect) {
		t.Helper()
		if ts.len() != len(ref) {
			t.Fatalf("len %d, want %d", ts.len(), len(ref))
		}
		n := 0
		ts.each(func(id uint32, r geom.Rect) {
			n++
			if want, ok := ref[id]; !ok || want != r {
				t.Fatalf("each yields %d %v, the map has %v %v", id, r, want, ok)
			}
		})
		if n != len(ref) {
			t.Fatalf("each yields %d entries, want %d", n, len(ref))
		}
		for id := uint32(0); id < 600; id++ {
			r, ok := ts.get(id)
			if want, wok := ref[id]; ok != wok || r != want || ts.has(id) != wok {
				t.Fatalf("get(%d) = %v %v, want %v %v", id, r, ok, want, wok)
			}
		}
	}
	for step := 0; step < 6000; step++ {
		id := uint32(rng.Intn(600))
		if _, dead := ref[id]; dead {
			ts = ts.remove(id)
			delete(ref, id)
		} else {
			ts = ts.add(id, rect(id))
			ref[id] = rect(id)
		}
		if step%500 == 0 {
			check(ts, ref)
			cp := make(map[uint32]geom.Rect, len(ref))
			for k, v := range ref {
				cp[k] = v
			}
			snaps = append(snaps, snap{ts, cp})
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
