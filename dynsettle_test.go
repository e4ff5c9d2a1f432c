package prtree

import (
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the settling checkpoint: Sync and Close move a file-backed
// dynamic index's pages out of the file's tail into the holes below and
// truncate — killed at every step of it, and run beside readers.

// TestDynamicSettleCrashEveryStep kills a Sync and a Close that both
// relocate and truncate. The history — 64 × Base() inserts at 512-byte
// blocks, every 11th followed by a delete — dies leaving some 120 pages of
// which 66 are in use, the one level in the file's tail; the uninterrupted
// Sync copies some 50 pages in a second STATE-bearing commit and returns
// the rest of the file. Killed before every third of those 119 persistence
// steps (every seventh with -short), the index reopens to the last committed
// digest with a clean scrub.
func TestDynamicSettleCrashEveryStep(t *testing.T) {
	stride := int64(3)
	if testing.Short() {
		stride = 7
	}
	history := func(d *Dynamic) Item {
		r := rand.New(rand.NewSource(41))
		items := crashItems(r, 64*d.Base(), 0)
		for i, it := range items {
			mustInsert(t, d, it)
			if i%11 == 10 {
				mustDelete(t, d, items[r.Intn(i)])
			}
		}
		return crashItems(r, 1, 1<<20)[0]
	}
	for op, run := range killCloseAndSync(t, stride, history) {
		t.Logf("%s: %d persistence steps, %d log records, %d pages before, %d after, %d in use",
			op, run.steps, run.walRecords, run.pagesBefore, run.pagesAfter, run.pagesInUseAfter)
		if run.walRecords != 6 || run.pagesAfter != run.pagesInUseAfter || 3*run.pagesAfter > 2*run.pagesBefore {
			t.Errorf("%s of a file of %d pages logged %d records and left %d pages, %d in use; want two NOTE+STATE+COMMIT and a file a third shorter, every page in use",
				op, run.pagesBefore, run.walRecords, run.pagesAfter, run.pagesInUseAfter)
		}
	}
}

// TestDynamicReadersBesideSync runs three readers beside a writer that
// inserts, deletes and Syncs every 97 mutations, so levels are relocated
// and the file truncated under the readers' feet. The schedule is fixed
// beforehand, so every answer is held to it: an item born before the query
// began and not deleted by the time it ended is in the answer once; one
// deleted before it began, or born after it ended, is not; nothing misses
// the window. Afterwards the index holds exactly the survivors, reopened
// too, and at least one Sync returned pages — pages a reader pins are held
// back, so not every Sync can.
func TestDynamicReadersBesideSync(t *testing.T) {
	const nItems, syncEvery = 1500, 97
	path := filepath.Join(t.TempDir(), "beside.prd")
	opts := &Options{BlockSize: 512}
	d, err := CreateDynamic(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The schedule: mutation v inserts or deletes; born and died index it.
	r := rand.New(rand.NewSource(97))
	items := crashItems(r, nItems, 0)
	type mutation struct {
		del bool
		id  int
	}
	var schedule []mutation
	born, died := make([]int, nItems), make([]int, nItems)
	for i := range items {
		schedule = append(schedule, mutation{id: i})
		born[i], died[i] = len(schedule), math.MaxInt
		if i%11 == 10 {
			if victim := r.Intn(i); died[victim] == math.MaxInt {
				schedule = append(schedule, mutation{del: true, id: victim})
				died[victim] = len(schedule)
			}
		}
	}

	var applied atomic.Int64 // mutations 1..applied are done; applied+1 may be under way
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			count := make([]uint8, nItems)
			for {
				select {
				case <-done:
					return
				default:
				}
				x, y := r.Float64(), r.Float64()
				q := NewRect(x, y, x+r.Float64()*0.5, y+r.Float64()*0.5)
				clear(count)
				from := int(applied.Load())
				got := d.Search(q)
				to := int(applied.Load()) + 1
				for _, it := range got {
					if !q.Intersects(it.Rect) || items[it.ID] != it {
						t.Errorf("window %v: answer holds %v", q, it)
						return
					}
					count[it.ID]++
				}
				for id, it := range items {
					switch hit := q.Intersects(it.Rect); {
					case count[id] > 1:
						t.Errorf("window %v: item %d answered %d times", q, id, count[id])
						return
					case count[id] == 1 && (born[id] > to || died[id] <= from):
						t.Errorf("window %v between mutations %d and %d: item %d (born %d, died %d) is in the answer", q, from, to, id, born[id], died[id])
						return
					case count[id] == 0 && hit && born[id] <= from && died[id] > to:
						t.Errorf("window %v between mutations %d and %d: item %d (born %d, died %d) is missing", q, from, to, id, born[id], died[id])
						return
					}
				}
			}
		}(w)
	}

	shrunk, syncs := 0, 0
	for v, m := range schedule {
		if m.del {
			if !mustDelete(t, d, items[m.id]) {
				t.Errorf("mutation %d: item %d was not there to delete", v+1, m.id)
			}
		} else {
			mustInsert(t, d, items[m.id])
		}
		applied.Store(int64(v + 1))
		if (v+1)%syncEvery == 0 {
			before, _ := d.PageCounts()
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			syncs++
			if after, _ := d.PageCounts(); after < before {
				shrunk++
			}
		}
	}
	close(done)
	wg.Wait()
	t.Logf("%d of %d Syncs shrank the file", shrunk, syncs)
	if shrunk == 0 {
		t.Errorf("none of the %d Syncs shrank the file", syncs)
	}

	check := func(what string, d *Dynamic) {
		t.Helper()
		got := make(map[uint32]Item)
		for _, it := range d.Search(NewRect(-1, -1, 2, 2)) {
			got[it.ID] = it
		}
		for id, it := range items {
			if _, in := got[it.ID]; in != (died[id] == math.MaxInt) || (in && got[it.ID] != it) {
				t.Fatalf("%s: item %d (died %d) present: %v", what, id, died[id], in)
			}
		}
		if len(got) != d.Len() {
			t.Fatalf("%s: %d items answered, Len %d", what, len(got), d.Len())
		}
	}
	check("after the run", d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDynamic(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check("reopened", re)
	if err := re.CheckPages(); err != nil {
		t.Error(err)
	}
}
