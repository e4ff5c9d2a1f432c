package logmethod

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"prtree/internal/bulk"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// checkDirectory holds one state to the directory's bookkeeping: stored
// counts exactly the items physically present, every tombstone names one of
// them outside the buffer, no id is stored twice, slot k holds at most
// base<<k items inside the box recorded for it.
func checkDirectory(t *testing.T, tr *Tree) {
	t.Helper()
	s := tr.st.Load()
	where := make(map[uint32]geom.Rect) // items a tombstone may name
	add := func(it geom.Item, what string) {
		if _, dup := where[it.ID]; dup {
			t.Fatalf("id %d is stored twice (second copy in %s)", it.ID, what)
		}
		where[it.ID] = it.Rect
	}
	sum := len(s.buffer)
	for k, l := range s.levels {
		if l == nil {
			continue
		}
		items := l.Items()
		if len(items) != l.Len() || l.Len() == 0 || l.Len() > tr.base<<uint(k) {
			t.Fatalf("slot %d holds %d items (Len %d), nominal size %d", k, len(items), l.Len(), tr.base<<uint(k))
		}
		sum += len(items)
		for _, it := range items {
			add(it, fmt.Sprintf("slot %d", k))
			if !l.mbr.Contains(it.Rect) {
				t.Fatalf("slot %d: box %v misses item %v", k, l.mbr, it)
			}
		}
	}
	if s.stored != sum || s.live != sum-s.dead.len() {
		t.Fatalf("stored %d live %d; %d items present, %d tombstones", s.stored, s.live, sum, s.dead.len())
	}
	s.dead.each(func(id uint32, r geom.Rect) {
		if got, ok := where[id]; !ok || got != r {
			t.Fatalf("tombstone %d %v names no stored item (found %v %v)", id, r, got, ok)
		}
	})
	for _, it := range s.buffer {
		add(it, "the buffer") // and so not tombstoned: every tombstone matched above
	}
	if c := tr.bufferCap(s); c < tr.base || c > maxBufferLeaves*tr.base {
		t.Fatalf("buffer capacity %d outside [%d, %d]", c, tr.base, maxBufferLeaves*tr.base)
	}
}

// checkAnswers compares windows, containment and k-NN with brute force over
// live, through the executor contract the facade drives: RunWindow and
// AppendNearest. The first window runs once more under a limit, which must
// bring back exactly that many live items whatever the tombstoned ones the
// window covers. Nearest over-fetches every level by the tombstone count,
// which purging keeps to the deletes since the level's last merge — a
// handful where it used to be every delete since the last global rebuild;
// what is asserted is the answer.
func checkAnswers(t *testing.T, tr *Tree, live []geom.Item, rng *rand.Rand) {
	t.Helper()
	if tr.Len() != len(live) {
		t.Fatalf("Len %d, want %d", tr.Len(), len(live))
	}
	run := func(q geom.Rect, contain bool, limit int) []geom.Item {
		var out []geom.Item
		st, err := tr.RunWindow(q, contain, func(it geom.Item) bool {
			out = append(out, it)
			return true
		}, rtree.RunOptions{Limit: limit})
		if err != nil || st.Results != len(out) {
			t.Fatalf("window %v: %d results, stats %+v, err %v", q, len(out), st, err)
		}
		return out
	}
	for i := 0; i < 3; i++ {
		x, y := rng.Float64(), rng.Float64()
		q := geom.NewRect(x, y, x+rng.Float64()*0.4, y+rng.Float64()*0.4)
		qs := []zoo.Query{{Rect: q}, {Kind: zoo.Contained, Rect: q}}
		if i == 0 {
			qs = append(qs, zoo.Query{Rect: q, Limit: zoo.Expect(live, qs[0]).Len()/2 + 1})
		}
		for _, zq := range qs {
			if err := zoo.Expect(live, zq).Check(run(q, zq.Kind == zoo.Contained, zq.Limit)); err != nil {
				t.Fatalf("%v: %v", zq, err)
			}
		}
	}
	x, y, k := rng.Float64(), rng.Float64(), 1+rng.Intn(12)
	var want []Neighbor
	for _, it := range zoo.Expect(live, zoo.Query{Kind: zoo.Nearest, X: x, Y: y, K: k}).Ranked() {
		want = append(want, Neighbor{Item: it, Dist2: it.Rect.Dist2(x, y)})
	}
	got, st, err := tr.AppendNearest(nil, x, y, k, rtree.RunOptions{})
	if err != nil || st.Results != len(got) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%d nearest to (%v, %v): %v (stats %+v, err %v), want %v", k, x, y, got, st, err, want)
	}
}

// durable owns a Tree on a page file the way prtree.Dynamic does: every
// mutation is one transaction that logs a note, or saves the state when the
// level directory changed; reopening replays the notes logged since the
// last save.
type durable struct {
	t      *testing.T
	path   string
	opt    bulk.Options
	fb     *storage.FileBackend
	tr     *Tree
	settle bool // a clean reopen settles the file first, as prtree.Dynamic's Sync and Close do
}

func (d *durable) transact(m *Mutation, fn func()) {
	d.t.Helper()
	d.fb.Begin()
	fn()
	if d.tr.TakeDirectoryChanged() || m == nil {
		d.fb.SetMeta(d.tr.SaveState(d.fb))
		d.fb.Note(SavedNote())
	} else {
		d.fb.Note(m.Note())
	}
	if err := d.fb.Commit(); err != nil {
		d.t.Fatal(err)
	}
}

func (d *durable) apply(m Mutation) { d.transact(&m, func() { d.tr.Apply(m) }) }

// reopen closes the file — saved and, with settle, settled first, or
// abandoned as a crash leaves it — and opens it again: OpenState on the
// saved directory, then the pending notes through Apply, inline carries and
// all. What the settling moved is held to its promises: it copied no more
// pages than the checkpoint then returned, and the file ends at its cut,
// with no more free pages left in it than the copied ancestors' and the
// rewritten chains' old ones and the holes the plan had to spare.
func (d *durable) reopen(crash bool) {
	d.t.Helper()
	if crash {
		d.fb.Abandon()
	} else {
		d.transact(nil, func() {})
		before, spare := d.fb.NumPages(), len(d.fb.ReusablePages())
		var done Settled
		if d.settle {
			done, _ = d.tr.Settle(d.fb.ReusablePages(), func(fn func()) error { d.transact(nil, fn); return nil })
		}
		if err := d.fb.Sync(); err != nil {
			d.t.Fatal(err)
		}
		if n, used := d.fb.NumPages(), d.fb.PagesInUse(); done.Copied > 0 {
			copies := done.Copied + done.Chains
			if n > int(done.Cut) || copies > before-n || n-used > spare-copies+done.Ancestors+done.Chains {
				d.t.Fatalf("settling a file of %d pages, %d of them reusable holes, to %+v left %d pages, %d in use", before, spare, done, n, used)
			}
		} else if done != (Settled{}) {
			d.t.Fatalf("a Settle that copied nothing reports %+v", done)
		}
		// The file holds the levels' nodes and the state pages, and those
		// hold what the header block's blob, filled first, has no room for.
		s, c := d.tr.st.Load(), &d.tr.chain
		nodes, records := 0, len(s.buffer)+s.dead.len()
		for _, l := range s.levels {
			if l != nil {
				nodes += l.Nodes()
			}
		}
		perPage := (d.fb.BlockSize() - chainHeaderSize) / storage.ItemSize
		full := len(d.fb.Meta())+storage.ItemSize > storage.MetaCapacity(d.fb.BlockSize())
		if used := d.fb.PagesInUse(); used != nodes+len(c.pages) || len(c.pages) != (records-c.inline+perPage-1)/perPage ||
			c.inline > records || (c.inline < records && !full) {
			d.t.Fatalf("%d pages in use for %d level nodes and %d state pages; %d records, %d of them in a %d-byte blob",
				used, nodes, len(c.pages), records, c.inline, len(d.fb.Meta()))
		}
		if err := d.fb.Close(); err != nil {
			d.t.Fatal(err)
		}
	}
	fb, err := storage.OpenFile(d.path, 0)
	if err != nil {
		d.t.Fatal(err)
	}
	tr, err := OpenState(storage.NewPager(fb, -1), d.opt, fb.Meta())
	if err != nil {
		d.t.Fatal(err)
	}
	d.fb, d.tr = fb, tr
	pending, err := PendingMutations(fb.RecoveredNotes())
	if err != nil {
		d.t.Fatal(err)
	}
	if len(pending) > 0 {
		d.transact(nil, func() {
			for _, m := range pending {
				tr.Apply(m)
			}
		})
	}
	fb.ConsumeNotes()
	if err := fb.Sync(); err != nil {
		d.t.Fatal(err)
	}
}

// TestGeneratedHistories drives generated histories — inserts, deletes,
// revives, flushes, clean reopens that settle the file first, crashes with
// a logged tail — and after every operation holds the directory to its
// bookkeeping (checkDirectory), every freshly built level to "holds nothing
// that was dead when it was built", and the answers to brute force. Each
// history runs a second time with plain reopens, checks off: after no
// reopen is the settled file the longer of the two.
func TestGeneratedHistories(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel() // a history is a chain of fsyncs: they wait side by side
			settled := generatedHistory(t, seed, true)
			plain := generatedHistory(t, seed, false)
			shorter := 0
			for i, n := range settled {
				if n > plain[i] {
					t.Fatalf("after reopen %d the settled file has %d pages, the unsettled one %d", i, n, plain[i])
				}
				if n < plain[i] {
					shorter++
				}
			}
			t.Logf("%d clean reopens, the settled file shorter after %d", len(settled), shorter)
			if shorter == 0 {
				t.Fatal("settling never shortened the file")
			}
		})
	}
}

// generatedHistory runs one history of TestGeneratedHistories and returns
// the file's page count after every clean reopen. With settle the reopens
// settle first and every check is on; without, the history is only run.
func generatedHistory(t *testing.T, seed int64, settle bool) (pagesAfterReopen []int) {
	const base, ops = 8, 3000
	rng := rand.New(rand.NewSource(seed))
	path := filepath.Join(t.TempDir(), "history.prd")
	fb, err := storage.CreateFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	opt := bulk.Options{}
	d := &durable{t: t, path: path, opt: opt, fb: fb, tr: New(storage.NewPager(fb, -1), opt, base), settle: settle}
	d.transact(nil, func() {})
	defer func() { d.fb.Abandon() }()

	var (
		live, graveyard  []geom.Item
		nextID           uint32
		seen             = map[*level]bool{}
		carries, deepest int
		lastLevels       []*level
	)
	// holdBuilt holds every level built since the last call to the
	// tombstone set it was built against.
	holdBuilt := func(dead tombstones) {
		t.Helper()
		s := d.tr.st.Load()
		for k, l := range s.levels {
			if l == nil || seen[l] {
				continue
			}
			seen[l] = true
			carries++
			for _, it := range l.Items() {
				if dead.has(it.ID) {
					t.Fatalf("slot %d was built with item %d, dead at the time", k, it.ID)
				}
			}
		}
	}
	forget := func() { // every level is a new struct after a reopen
		seen = map[*level]bool{}
		for _, l := range d.tr.st.Load().levels {
			seen[l] = true
		}
	}

	for op := 0; op < ops; op++ {
		p := rng.Intn(100)
		switch {
		case p < 55:
			x, y := rng.Float64(), rng.Float64()
			it := geom.Item{Rect: geom.NewRect(x, y, x+rng.Float64()*0.05, y+rng.Float64()*0.05), ID: nextID}
			nextID++
			live = append(live, it)
			d.apply(Mutation{Item: it})
		case p < 75 && len(live) > 0:
			j := rng.Intn(len(live))
			it := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			graveyard = append(graveyard, it)
			d.apply(Mutation{Delete: true, Item: it})
		case p < 83 && len(graveyard) > 0:
			// A revive if the item is still tombstoned, a plain
			// insert if a merge has purged it since.
			j := rng.Intn(len(graveyard))
			it := graveyard[j]
			graveyard[j] = graveyard[len(graveyard)-1]
			graveyard = graveyard[:len(graveyard)-1]
			live = append(live, it)
			d.apply(Mutation{Item: it})
		case p < 84 && rng.Intn(8) == 0: // rare: a flush resets the counter
			d.transact(nil, d.tr.Flush)
		case p < 87:
			d.reopen(false)
			forget()
			pagesAfterReopen = append(pagesAfterReopen, d.fb.NumPages())
		case p < 90:
			d.reopen(true)
			forget()
		}
		// The answers are checked in both runs: the probes come out of the
		// history's own generator, and an unsettled file answers too.
		if op%20 == 0 || op == ops-1 {
			checkAnswers(t, d.tr, live, rng)
		}
		if !settle {
			continue
		}
		// A level built by this op holds nothing tombstoned once the op is
		// done: a merge copies nothing dead, and no op both merges and
		// deletes.
		holdBuilt(d.tr.st.Load().dead)
		// The walk reads every level: after every operation while
		// the index is small or when levels were replaced, every
		// eighth otherwise.
		if s := d.tr.st.Load(); s.stored < 256 || op%8 == 0 || !slices.Equal(s.levels, lastLevels) {
			checkDirectory(t, d.tr)
			lastLevels = s.levels
		}
		deepest = max(deepest, d.tr.Levels())
	}
	if !settle {
		return pagesAfterReopen
	}
	t.Logf("%d levels built, at most %d at once; ends with %d live, %d tombstones, buffer %d of %d, slots %v",
		carries, deepest, len(live), d.tr.st.Load().dead.len(), d.tr.BufferLen(), d.tr.BufferCap(), d.tr.LevelSizes())
	if carries < 5 || deepest < 3 {
		t.Fatalf("the history built %d levels, at most %d at once; want the doubling and the binary counter both exercised", carries, deepest)
	}
	return pagesAfterReopen
}
