package compact

import (
	"math/rand"
	"testing"
	"time"

	"prtree/internal/bulk"
	"prtree/internal/geom"
	"prtree/internal/logmethod"
	"prtree/internal/storage"
)

// harness wires a Compactor to a fresh in-memory logmethod tree the way
// prtree.Dynamic does, minus the facade: Commit just runs the mutation
// (the memory backend's transactions are no-ops and there is no
// directory blob to stage).
func harness(base int) (*logmethod.Tree, *Compactor) {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	pager := storage.NewPager(disk, -1)
	tr := logmethod.New(pager, bulk.Options{Fanout: 16, MemoryItems: 4096}, base)
	c := New(Config{
		Tree:    tr,
		Commit:  func(fn func()) error { fn(); return nil },
		Backend: disk,
	})
	return tr, c
}

func randItems(n int, seed int64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = geom.Item{
			Rect: geom.NewRect(x, y, x+rng.Float64()*0.02, y+rng.Float64()*0.02),
			ID:   uint32(i + 1),
		}
	}
	return items
}

// waitMerge polls until at least one merge has completed and none is in
// flight, failing the test at the deadline: an all-in-memory workload can
// finish long before the supervisor goroutine is first scheduled.
func waitMerge(t *testing.T, c *Compactor) Stats {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := c.Stats()
		if st.MergesCompleted >= 1 && st.MergesStarted == st.MergesCompleted+st.MergesAborted {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("no merge settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCompactorBackgroundMerge(t *testing.T) {
	tr, c := harness(16)
	c.Start()
	defer c.Stop()

	items := randItems(200, 42)
	for _, it := range items {
		c.Throttle()
		tr.Insert(it)
	}
	st := waitMerge(t, c)

	if st.MergesAborted != 0 {
		t.Errorf("merges aborted: %d", st.MergesAborted)
	}
	if st.ItemsAbsorbed == 0 || st.ItemsMerged < st.ItemsAbsorbed {
		t.Errorf("item accounting: merged %d, absorbed %d", st.ItemsMerged, st.ItemsAbsorbed)
	}
	if st.WriteAmplification < 1 {
		t.Errorf("write amplification %.2f < 1", st.WriteAmplification)
	}
	if st.PagesRewritten == 0 {
		t.Errorf("no pages rewritten despite %d completed merges", st.MergesCompleted)
	}
	if st.SnapshotReaders != 0 {
		t.Errorf("snapshot readers leaked: %d", st.SnapshotReaders)
	}

	// Background merges must be invisible to queries.
	q := geom.NewRect(0.2, 0.2, 0.6, 0.6)
	want := map[uint32]bool{}
	for _, it := range items {
		if q.Intersects(it.Rect) {
			want[it.ID] = true
		}
	}
	got := map[uint32]bool{}
	tr.Query(q, func(it geom.Item) bool {
		if got[it.ID] {
			t.Fatalf("duplicate result %d", it.ID)
		}
		got[it.ID] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("query results: got %d, want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("missing item %d", id)
		}
	}
}

func TestCompactorDrainPausesMerges(t *testing.T) {
	tr, c := harness(16)
	c.Start()
	defer c.Stop()

	release := c.Drain()
	before := c.Stats().MergesStarted
	for _, it := range randItems(5*16, 7) {
		tr.Insert(it)
	}
	// The buffer is over-full; a paused compactor must not touch it.
	time.Sleep(80 * time.Millisecond)
	if started := c.Stats().MergesStarted; started != before {
		t.Fatalf("merge started while drained: %d -> %d", before, started)
	}
	release()
	waitMerge(t, c)
}

func TestCompactorStopRevertsToInline(t *testing.T) {
	tr, c := harness(16)
	c.Start()
	for _, it := range randItems(40, 3) {
		tr.Insert(it)
	}
	c.Stop()
	c.Stop() // idempotent

	// After Stop the tree carries inline again: the buffer can never be
	// observed full once an insert returns.
	for _, it := range randItems(64, 9) {
		tr.Insert(it)
		if got := tr.BufferLen(); got >= tr.BufferCap() {
			t.Fatalf("inline carry not restored: buffer %d of %d", got, tr.BufferCap())
		}
	}
	if c.Stats().MergesStarted != c.Stats().MergesCompleted+c.Stats().MergesAborted {
		t.Fatalf("carry left in flight after Stop: %+v", c.Stats())
	}
}
