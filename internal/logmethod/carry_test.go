package logmethod

import (
	"sync"
	"testing"

	"prtree/internal/geom"
)

// TestCarryPurgeReviveMidMerge: a background merge leaves out what was
// tombstoned when it claimed its levels. While Build runs (beside a reader,
// under the race detector) one such id is revived, one revived and deleted
// again, and two more items — one of a claimed level, one of the buffer
// snapshot — are tombstoned. After Install the revived item is there exactly
// once, in the buffer; the still-dead ones are gone with their tombstones;
// the ones tombstoned in flight were copied and keep theirs. After Abort
// nothing was purged: the levels stand as they were.
func TestCarryPurgeReviveMidMerge(t *testing.T) {
	for _, finish := range []string{"install", "abort"} {
		t.Run(finish, func(t *testing.T) {
			tr := newTree(8)
			items := randItems(128, 21)
			for _, it := range items[:64] {
				tr.Insert(it) // three doublings: one level of 64, the buffer empty and 64 wide
			}
			if got := tr.LevelSizes(); tr.Levels() != 1 || tr.BufferLen() != 0 || tr.BufferCap() != 64 {
				t.Fatalf("set-up: slots %v, buffer %d of %d; want one level of 64 and an empty buffer as big", got, tr.BufferLen(), tr.BufferCap())
			}
			revived, again, gone1, gone2 := items[0], items[1], items[2], items[3]
			late, lateSnap := items[10], items[70]
			for _, it := range []geom.Item{revived, again, gone1, gone2} {
				if !tr.Delete(it) {
					t.Fatalf("delete %d failed", it.ID)
				}
			}
			tr.SetBackground(true)
			for _, it := range items[64:] {
				tr.Insert(it)
			}
			job, ok := tr.BeginCarry()
			if !ok {
				t.Fatal("BeginCarry refused with a full buffer")
			}

			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				job.Build()
			}()
			go func() { // a reader: never a duplicate, never one of the two that stay dead
				defer wg.Done()
				for i := 0; i < 40; i++ {
					seen := map[uint32]bool{}
					tr.Query(geom.NewRect(-1, -1, 2, 2), func(it geom.Item) bool {
						if seen[it.ID] || it.ID == gone1.ID || it.ID == gone2.ID {
							t.Errorf("reader saw id %d twice or dead", it.ID)
						}
						seen[it.ID] = true
						return true
					})
				}
			}()
			tr.Insert(revived)
			tr.Insert(again)
			if !tr.Delete(again) || !tr.Delete(late) || !tr.Delete(lateSnap) {
				t.Fatal("a delete beside the running build failed")
			}
			wg.Wait()

			wantDead := map[uint32]bool{late.ID: true}
			stored := 128
			if finish == "install" {
				job.Install()
				wantDead[lateSnap.ID] = true // copied into the new level with its tombstone
				stored -= 3                  // again, gone1, gone2
			} else {
				job.Abort(true)
				for _, it := range []geom.Item{again, gone1, gone2} {
					wantDead[it.ID] = true
				}
				stored-- // lateSnap: dropped on the snapshot's way back to the buffer
			}

			checkDirectory(t, tr)
			s := tr.st.Load()
			if s.stored != stored || tr.Len() != 123 || s.dead.len() != len(wantDead) {
				t.Fatalf("stored %d live %d tombstones %d; want %d, 123, %d", s.stored, tr.Len(), s.dead.len(), stored, len(wantDead))
			}
			s.dead.each(func(id uint32, _ geom.Rect) {
				if !wantDead[id] {
					t.Errorf("tombstone for %d survives", id)
				}
			})
			inBuffer := false
			for _, it := range s.buffer {
				inBuffer = inBuffer || it == revived
			}
			if inBuffer != (finish == "install") {
				t.Errorf("revived item in the buffer: %v", inBuffer)
			}
			count := map[uint32]int{}
			tr.Query(geom.NewRect(-1, -1, 2, 2), func(it geom.Item) bool { count[it.ID]++; return true })
			for _, it := range items {
				want := 1
				if it == again || it == gone1 || it == gone2 || it == late || it == lateSnap {
					want = 0
				}
				if count[it.ID] != want {
					t.Errorf("item %d answered %d times, want %d", it.ID, count[it.ID], want)
				}
			}

			// And the structure goes on: inline again, across the next merge.
			tr.SetBackground(false)
			more := randItems(400, 22)[128:]
			for _, it := range more {
				tr.Insert(it)
			}
			checkDirectory(t, tr)
			if tr.Len() != 123+len(more) {
				t.Errorf("Len %d after %d more inserts, want %d", tr.Len(), len(more), 123+len(more))
			}
		})
	}
}

// TestLevelOutsideWindowCostsNoPage: a level's bounding box is recorded when
// it is built (and read once when it is opened), so a window that misses the
// box visits no node of it — it used to read the root, a counted leaf visit
// when the level is one leaf — and k-NN skips a level that lies beyond the
// k-th candidate it already has.
func TestLevelOutsideWindowCostsNoPage(t *testing.T) {
	tr := newTree(8)
	// A level of one leaf along y=0, x in [0, 1], and a buffer far from it.
	for i := 0; i < 8; i++ {
		tr.Insert(geom.Item{Rect: geom.NewRect(float64(i)/8, 0, float64(i)/8+0.05, 0.05), ID: uint32(i)})
	}
	for i := 0; i < 5; i++ {
		tr.Insert(geom.Item{Rect: geom.NewRect(10+float64(i), 10, 10.5+float64(i), 10.5), ID: uint32(100 + i)})
	}
	if tr.Levels() != 1 || tr.BufferLen() != 5 {
		t.Fatalf("set-up: slots %v, buffer %d", tr.LevelSizes(), tr.BufferLen())
	}
	if st := tr.Query(geom.NewRect(9, 9, 20, 20), nil); st.NodesVisited != 0 || st.Results != 5 {
		t.Errorf("window beside the level: %d nodes visited, %d results; want 0 and the 5 buffered", st.NodesVisited, st.Results)
	}
	if st := tr.Contained(geom.NewRect(9, 9, 20, 20), nil); st.NodesVisited != 0 || st.Results != 5 {
		t.Errorf("containment beside the level: %d nodes visited, %d results; want 0 and 5", st.NodesVisited, st.Results)
	}
	if st := tr.Query(geom.NewRect(0, 0, 0.3, 0.3), nil); st.NodesVisited != 1 || st.LeavesVisited != 1 || st.Results != 3 {
		t.Errorf("window inside the level: %+v; want its one leaf and 3 results", st)
	}
	c0 := tr.pager.CacheStats()
	nn := tr.Nearest(12, 10.2, 3)
	if len(nn) != 3 || nn[0].Item.ID != 102 {
		t.Fatalf("3 nearest to the buffered cluster: %v", nn)
	}
	if c1 := tr.pager.CacheStats(); c1.Hits != c0.Hits || c1.Misses != c0.Misses {
		t.Errorf("k-NN answered from the buffer read pages: %+v then %+v", c0, c1)
	}
	if nn := tr.Nearest(0.5, 0, 9); len(nn) != 9 || nn[8].Item.ID < 100 {
		t.Errorf("9 nearest from inside the level: %v; want its 8 items, then a buffered one", nn)
	}
}
