package prtree

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"prtree/internal/dataset"
	"prtree/internal/storage"
)

// The crash-recovery property tests: run a workload against a file-backed
// index, kill the process (via the backend's deterministic crash points)
// at EVERY persistence step — every WAL record append, fsync, page write
// and header rewrite — reopen, and require that the recovered index
// validates and answers every query exactly like one of the workload's
// committed states. A crash must never surface a torn mix of two
// transactions. crashSweep is the loop every such suite runs.

// crashItems builds a deterministic item set in the unit square.
func crashItems(r *rand.Rand, n, idBase int) []Item {
	items := make([]Item, n)
	for i := range items {
		x, y := r.Float64(), r.Float64()
		items[i] = Item{
			Rect: NewRect(x, y, x+0.02*r.Float64(), y+0.02*r.Float64()),
			ID:   uint32(idBase + i),
		}
	}
	return items
}

// crashIndex is what a crash sweep asks of a file-backed Tree or Dynamic.
type crashIndex interface {
	querier
	Len() int
	Recovery() *RecoveryInfo
	CheckPages() error
	Close() error
	fileBackend(testing.TB) *storage.FileBackend
}

// fileBackend returns the index file under a file-backed Tree or Dynamic.
func (h *handle) fileBackend(tb testing.TB) *storage.FileBackend {
	tb.Helper()
	if h.fb == nil {
		tb.Fatal("file-backed index has no FileBackend")
	}
	return h.fb
}

// indexDigest fingerprints an index's entire query surface — its size,
// windows, containment, points and kNN — after validating a Tree's
// structure. Window, point and containment results are canonicalized by
// item ID (indexes with the same contents may hold different shapes, so
// traversal order is not comparable — the result SET must be identical);
// kNN results keep their order, which is deterministic (distance then ID)
// regardless of shape.
func indexDigest(t testing.TB, x crashIndex) uint32 {
	t.Helper()
	if v, ok := x.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
	}
	var sb strings.Builder
	dump := func(kind string, q Query) {
		items := collect(t, x, q)
		slices.SortStableFunc(items, func(a, b Item) int { return cmp.Compare(a.ID, b.ID) })
		fmt.Fprintf(&sb, "%s:%d;", kind, len(items))
		for _, it := range items {
			fmt.Fprintf(&sb, "%d,%v;", it.ID, it.Rect)
		}
	}
	fmt.Fprintf(&sb, "len:%d;", x.Len())
	for _, q := range []Rect{
		NewRect(0.1, 0.1, 0.4, 0.4),
		NewRect(0.5, 0.5, 0.9, 0.9),
		NewRect(0.25, 0.6, 0.35, 0.95),
		NewRect(0, 0, 1, 1),
		NewRect(0.42, 0.13, 0.58, 0.27),
	} {
		dump("w", Window(q))
		dump("c", Contained(q))
	}
	dump("p", Point(0.33, 0.44))
	dump("p", Point(0.71, 0.18))
	for _, nn := range [][]Neighbor{nearest(t, x, 0.2, 0.8, 10), nearest(t, x, 0.9, 0.1, 10)} {
		fmt.Fprintf(&sb, "n:%d;", len(nn))
		for _, n := range nn {
			fmt.Fprintf(&sb, "%d,%v,%g;", n.Item.ID, n.Item.Rect, n.Dist2)
		}
	}
	return crc32.ChecksumIEEE([]byte(sb.String()))
}

// expectInjectedCrash runs fn and reports whether it died of an injected
// fault; any other panic or error fails the test.
func expectInjectedCrash(t *testing.T, what string, fn func() error) (crashed bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok || !errors.Is(err, storage.ErrInjectedFault) {
				t.Fatalf("%s: panic %v, want ErrInjectedFault", what, r)
			}
			crashed = true
		}
	}()
	if err := fn(); err != nil {
		if !errors.Is(err, storage.ErrInjectedFault) {
			t.Fatalf("%s: %v", what, err)
		}
		return true
	}
	return false
}

// recoverPanic runs fn and returns its error, or the panic it died of as
// one.
func recoverPanic(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// copyCrashFiles clones a page file and its WAL sidecar.
func copyCrashFiles(t *testing.T, from, to string) {
	t.Helper()
	for _, suffix := range []string{"", ".wal"} {
		data, err := os.ReadFile(from + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to+suffix, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// crashSweep kills an operation on an index file before its first, then
// every stride-th persistence step, and holds what each kill leaves.
type crashSweep[I crashIndex] struct {
	name       string // what is killed, for failure messages
	seed, work string // every run starts from a copy of seed at work
	stride     int64
	steps      int64 // the last step killed
	// kill opens the victim on work and runs the operation, handing the
	// victim's index file to arm at the moment the steps start counting.
	kill func(arm func(*storage.FileBackend)) error
	// survived, when set, ends the sweep at the first run that outlives
	// its crash point, and gets that run's disarmed index file; the sweep
	// fails if no run has by step steps.
	survived func(fb *storage.FileBackend)
	// reopen opens work after the run; check holds the reopened index to
	// what the run, crashed or not, may leave.
	reopen func() (I, error)
	check  func(what string, crashed bool, re I)
}

// run copies the seed, arms the crash point, runs the operation, catches
// the injected fault and abandons the dead victim's file, reopens, checks,
// scrubs and closes, once for every step it kills.
func (s crashSweep[I]) run(t *testing.T) {
	t.Helper()
	for k := int64(1); k <= s.steps || s.survived != nil; k += s.stride {
		if k > s.steps {
			t.Fatalf("%s still crashing after %d steps", s.name, k)
		}
		what := fmt.Sprintf("%s killed at step %d", s.name, k)
		copyCrashFiles(t, s.seed, s.work)
		var fb *storage.FileBackend
		crashed := expectInjectedCrash(t, what, func() error {
			return s.kill(func(f *storage.FileBackend) {
				fb = f
				fb.SetCrashAfterSteps(fb.PersistSteps() + k)
			})
		})
		if crashed {
			fb.Abandon() // the "process" is dead; drop its descriptors
		} else {
			fb.SetCrashAfterSteps(0)
			if s.survived != nil {
				s.survived(fb)
			}
		}
		re, err := s.reopen()
		if err != nil {
			t.Fatalf("%s: reopen: %v", what, err)
		}
		s.check(what, crashed, re)
		if err := re.CheckPages(); err != nil {
			t.Fatalf("%s: checksum scrub after recovery: %v", what, err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("%s: close reopened: %v", what, err)
		}
		if !crashed && s.survived != nil {
			return
		}
	}
}

// killWorkload runs workload, then Close, over an empty index made by
// create, recording the digest of every state it commits and of the state
// it ends in, and counting the persistence steps it spends. It then kills
// the same run, from the same empty index, at every stride-th step: each
// reopen must be one of the committed states, and a run that outlived its
// crash point must end where the reference did.
func killWorkload[I crashIndex](t *testing.T, stride int64, create, open func(string) (I, error), workload func(I, func()) error) {
	t.Helper()
	seed := filepath.Join(t.TempDir(), "seed")
	ref, err := create(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	copyCrashFiles(t, seed, seed+".ref")
	if ref, err = open(seed + ".ref"); err != nil {
		t.Fatal(err)
	}
	committed := map[uint32]bool{indexDigest(t, ref): true}
	fb := ref.fileBackend(t)
	start := fb.PersistSteps()
	if err := workload(ref, func() { committed[indexDigest(t, ref)] = true }); err != nil {
		t.Fatal(err)
	}
	final := indexDigest(t, ref)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	steps := fb.PersistSteps() - start
	if steps < 20 {
		t.Fatalf("workload spent only %d persistence steps; instrumentation broken?", steps)
	}
	t.Logf("workload: %d persistence steps, %d distinct committed states", steps, len(committed))

	work := seed + ".crash"
	crashSweep[I]{
		name: "workload", seed: seed, work: work, stride: stride, steps: steps,
		kill: func(arm func(*storage.FileBackend)) error {
			victim, err := open(work)
			if err != nil {
				return err
			}
			arm(victim.fileBackend(t))
			if err := workload(victim, nil); err != nil {
				return err
			}
			return victim.Close()
		},
		reopen: func() (I, error) { return open(work) },
		check: func(what string, crashed bool, re I) {
			d := indexDigest(t, re)
			if crashed && !committed[d] {
				t.Fatalf("%s: recovered state matches no committed state (recovery: %v)", what, re.Recovery())
			}
			if !crashed && d != final {
				t.Fatalf("%s: uncrashed run diverged from the reference", what)
			}
		},
	}.run(t)
}

// crashWorkload applies the deterministic mutation sequence a static tree
// knows: three rebuilds — PR, Hilbert, TGS — over different item sets, one
// transaction each, the first into the empty index. afterTx, when non-nil,
// is called after every committed transaction.
func crashWorkload(tr *Tree, afterTx func()) error {
	r := rand.New(rand.NewSource(7))
	for i, l := range []Loader{PR, Hilbert, TGS} {
		if err := tr.BulkLoad(l, crashItems(r, 180-30*i, 1000*i)); err != nil {
			return err
		}
		if afterTx != nil {
			afterTx()
		}
	}
	return nil
}

func TestCrashRecoveryEveryBoundary(t *testing.T) {
	opts := &Options{BlockSize: 512}
	killWorkload(t, 1, func(path string) (*Tree, error) { return Create(path, opts) },
		func(path string) (*Tree, error) { return Open(path, opts) }, crashWorkload)
}

// TestCrashRecoveryReporting: the facade surfaces what recovery did.
func TestCrashRecoveryReporting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.pr")
	opts := &Options{BlockSize: 512}
	tr, err := Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(PR, crashItems(rand.New(rand.NewSource(1)), 50, 0)); err != nil {
		t.Fatal(err)
	}
	if tr.Recovery() != nil {
		t.Errorf("fresh tree reports recovery: %+v", tr.Recovery())
	}
	// Die without checkpointing: the bulk load lives only in the WAL state.
	tr.fileBackend(t).Abandon()

	re, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	ri := re.Recovery()
	if ri == nil || ri.ReplayedTxs == 0 {
		t.Fatalf("Recovery() = %+v, want replayed transactions", ri)
	}
	if re.Len() != 50 {
		t.Errorf("recovered tree has %d items, want 50", re.Len())
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	// Cleanly closed now: the next open is quiet.
	re2, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Recovery() != nil {
		t.Errorf("clean reopen reports recovery: %+v", re2.Recovery())
	}
}

// TestCheckPagesFlippedByte: the facade-level scrub catches a flipped
// byte with a wrapped inspectable error, per the acceptance criterion.
func TestCheckPagesFlippedByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.pr")
	opts := &Options{BlockSize: 512}
	tr, err := Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(PR, crashItems(rand.New(rand.NewSource(2)), 80, 0)); err != nil {
		t.Fatal(err)
	}
	// Pick a leaf that is not the root: Open only sanity-checks the root
	// structurally, so the flip must be caught by the checksum scrub alone.
	var target PageID
	root := tr.inner.Root()
	tr.inner.Walk(func(page PageID, level int, isLeaf bool, entries []Item) {
		if isLeaf && page != root && target == 0 {
			target = page
		}
	})
	if target == 0 {
		t.Fatal("no non-root leaf to corrupt")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the target page's data area (slot = 512 + 8).
	off := 512 + int64(target)*(512+8) + 40
	var orig [1]byte
	if _, err := f.ReadAt(orig[:], off); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{orig[0] ^ 0x01}, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open after non-root flip: %v", err)
	}
	defer re.fileBackend(t).Abandon()
	if err := re.CheckPages(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("CheckPages = %v, want wrapped ErrChecksum", err)
	}
}

// TestFaultSweepRecovery drives a file-backed tree through the error and
// stop modes of storage.Faulty, placed under it with Options.WrapBackend,
// and through a kill at a persistence step (SetCrashAfterSteps): a
// committed base, then rebuilds over a growing item set — one BulkLoad,
// one transaction each; rebuild i holds i items more than the base, so the
// recovered size names the rebuild — with the fault armed 25 counted ops
// or persistence steps in, until the backend errors, dies or silently
// stops persisting. The process then dies without a checkpoint (Abandon)
// and the index is reopened. The honest faults (error, crash) recover
// exactly the last acked rebuild, sound; the stop mode, a disk that acks
// commits it dropped, recovers at most that.
func TestFaultSweepRecovery(t *testing.T) {
	const rebuilds = 40
	items := dataset.Western(1000+rebuilds, 12)
	base := len(items) - rebuilds
	for _, mode := range []string{"error", "crash", "stop"} {
		path := filepath.Join(t.TempDir(), "victim.pr")
		var faulty *storage.Faulty
		tr, err := Create(path, &Options{WrapBackend: func(b Backend) Backend {
			// "crash" gets the zero mode, FaultNone, which only counts.
			fm := map[string]storage.FaultMode{"error": storage.FaultError, "stop": storage.FaultStop}[mode]
			faulty = storage.NewFaulty(b, fm, 0) // disarmed for the base
			return faulty
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(PR, items[:base]); err != nil {
			t.Fatalf("%s: base build: %v", mode, err)
		}
		if err := tr.Sync(); err != nil {
			t.Fatalf("%s: base checkpoint: %v", mode, err)
		}
		if fb := tr.fileBackend(t); mode == "crash" {
			fb.SetCrashAfterSteps(fb.PersistSteps() + 25)
		} else {
			faulty.Arm(25)
		}
		acked := 0
		for i := 1; i <= rebuilds; i++ {
			if err := recoverPanic(func() error { return tr.BulkLoad(PR, items[:base+i]) }); err != nil {
				break
			}
			acked++
		}
		tr.fileBackend(t).Abandon()

		re, err := Open(path, nil)
		if err != nil {
			t.Errorf("%s: reopen failed: %v", mode, err)
			continue
		}
		recovered := re.Len() - base
		validate := recoverPanic(re.Validate)
		scrub := recoverPanic(re.CheckPages)
		re.fileBackend(t).Abandon()
		switch mode {
		case "error", "crash":
			if recovered != acked {
				t.Errorf("%s: recovered rebuild %d, acked %d", mode, recovered, acked)
			}
			if validate != nil {
				t.Errorf("%s: recovered tree failed validation: %v", mode, validate)
			}
			if scrub != nil {
				t.Errorf("%s: recovered file failed scrub: %v", mode, scrub)
			}
		case "stop":
			if recovered > acked {
				t.Errorf("stop: recovered rebuild %d > acked %d", recovered, acked)
			}
			if scrub != nil {
				t.Errorf("stop: recovered file failed scrub: %v", scrub)
			}
		}
		t.Logf("%s: acked %d, recovered %d, validate %v, scrub %v", mode, acked, recovered, validate, scrub)
	}
}

// failCommit is a decorator written the way a user would write one, by
// embedding the Backend it wraps; once armed, it fails the next Commit.
type failCommit struct {
	Backend
	armed bool
}

func (f *failCommit) Commit() error {
	if f.armed {
		f.armed = false
		return fmt.Errorf("%w: commit", storage.ErrInjectedFault)
	}
	return f.Backend.Commit()
}

// TestFailedChangeClosesIndex: a change whose commit fails closes the
// index, on a Tree and on a Dynamic, whether the change carries or only
// logs a note. The failing call returns the error; every later change and
// Sync fails; Close returns nil and leaves both files as the failure left
// them; and the file reopens to the last committed state, holding exactly
// the acknowledged items. Input refused before the transaction leaves the
// index open.
func TestFailedChangeClosesIndex(t *testing.T) {
	items := crashItems(rand.New(rand.NewSource(60)), 600, 0)
	var fc *failCommit
	opts := &Options{BlockSize: 512, WrapBackend: func(b Backend) Backend {
		fc = &failCommit{Backend: b}
		return fc
	}}
	files := func(t *testing.T, path string) []byte {
		page, err1 := os.ReadFile(path)
		log, err2 := os.ReadFile(path + ".wal")
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		return append(page, log...)
	}
	type op struct {
		name string
		fn   func() error
	}
	// fails runs fail, whose commit the decorator fails, on x, which
	// holds acked as committed, and checks everything after it.
	fails := func(t *testing.T, path string, x crashIndex, acked []Item, fail func() error,
		later []op, reopen func() (crashIndex, error)) {
		want := indexDigest(t, x)
		fc.armed = true
		if err := fail(); !errors.Is(err, storage.ErrInjectedFault) {
			t.Fatalf("the failing change returned %v, want the injected error", err)
		}
		failed := files(t, path)
		for _, o := range later {
			switch err := recoverPanic(o.fn); {
			case err == nil:
				t.Errorf("%s after the failed change succeeded", o.name)
			case strings.HasPrefix(err.Error(), "panic: "):
				t.Fatalf("%s after the failed change: %v", o.name, err)
			}
		}
		for i := 0; i < 2; i++ {
			if err := x.Close(); err != nil {
				t.Errorf("Close %d = %v, want nil", i+1, err)
			}
		}
		if !bytes.Equal(files(t, path), failed) {
			t.Error("the index files changed after the failed change")
		}
		re, err := reopen()
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer re.Close()
		got := collect(t, re, Window(NewRect(-1, -1, 2, 2)))
		slices.SortFunc(got, func(a, b Item) int { return cmp.Compare(a.ID, b.ID) })
		if !slices.Equal(got, acked) {
			t.Errorf("reopened with %d items, want the %d acknowledged", len(got), len(acked))
		}
		if err := re.CheckPages(); err != nil {
			t.Errorf("CheckPages: %v", err)
		}
		if d := indexDigest(t, re); d != want { // indexDigest validates a Tree
			t.Errorf("reopened to digest %08x, the last committed state is %08x", d, want)
		}
	}

	t.Run("tree-bulkload", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "t.pr")
		tr, err := Create(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		base := items[:300]
		if err := tr.BulkLoad(PR, base); err != nil {
			t.Fatal(err)
		}
		bad := append([]Item{{Rect: Rect{MinX: 1, MaxX: 0}}}, items...)
		if err := tr.BulkLoad(PR, bad); err == nil {
			t.Fatal("a load with an invalid rectangle succeeded")
		}
		fails(t, path, tr, base, func() error { return tr.BulkLoad(PR, items) },
			[]op{{"BulkLoad", func() error { return tr.BulkLoad(PR, base) }}, {"Sync", tr.Sync}},
			func() (crashIndex, error) { return Open(path, nil) })
	})

	for _, carry := range []bool{true, false} {
		t.Run(fmt.Sprintf("dynamic-insert/carry=%v", carry), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "d.prd")
			d, err := CreateDynamic(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			insert := func() error { n++; return d.InsertE(items[n-1]) }
			for n < 300 || (d.BufferLen()+1 == d.BufferCap()) != carry {
				if err := insert(); err != nil {
					t.Fatal(err)
				}
			}
			if d.InsertE(Item{Rect: Rect{MinX: 1, MaxX: 0}}) == nil {
				t.Fatal("an insert with an invalid rectangle succeeded")
			}
			if ok, err := d.DeleteE(items[len(items)-1]); ok || err != nil {
				t.Fatalf("deleting a missing item = %v, %v; want false, nil", ok, err)
			}
			merges := d.CompactionStats().MergesCompleted
			fails(t, path, d, items[:n], insert,
				[]op{
					{"InsertE", func() error { return d.InsertE(items[n]) }},
					{"DeleteE", func() error { _, err := d.DeleteE(items[0]); return err }},
					{"FlushE", d.FlushE},
					{"Sync", d.Sync},
				},
				func() (crashIndex, error) { return OpenDynamic(path, nil) })
			if ran := d.CompactionStats().MergesCompleted > merges; ran != carry {
				t.Errorf("the failed insert carried: %v, want %v", ran, carry)
			}
		})
	}
}

// TestWrapBackendEmbeddingKeepsAtomicity: a decorator written the obvious
// way, a struct embedding the Backend it wraps, forwards the transaction
// hooks with every other method, so a rebuild under it is still one
// transaction. Killed at steps spread across the rebuild, the process
// leaves an index that reopens to the committed base, sound: a rebuild
// outside a transaction would reuse the base's freed pages in place.
func TestWrapBackendEmbeddingKeepsAtomicity(t *testing.T) {
	items := dataset.Western(5000, 36)
	if len(items) < 3000 {
		t.Fatalf("dataset has %d items, want at least 3000", len(items))
	}
	base, rebuild := items[:2000], items[:3000]
	dir := t.TempDir()
	seed, path := filepath.Join(dir, "base.pr"), filepath.Join(dir, "embed.pr")
	opts := &Options{BlockSize: 512, WrapBackend: func(b Backend) Backend { return struct{ Backend }{b} }}
	// The committed base, created under the wrapper.
	tr, err := Create(seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(PR, base); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	copyCrashFiles(t, seed, path)
	tr, err = Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	fb := tr.fileBackend(t)
	start := fb.PersistSteps()
	if err := tr.BulkLoad(PR, rebuild); err != nil {
		t.Fatal(err)
	}
	steps := fb.PersistSteps() - start
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	stride := max(1, steps/24)
	t.Logf("rebuild: %d persistence steps, killed every %d", steps, stride)

	// Kill points stop short of the last step, the commit's fsync: killed
	// there, the process has written its commit record, and the reopen
	// reads the rebuild as committed.
	crashSweep[*Tree]{
		name: "rebuild", seed: seed, work: path, stride: stride, steps: steps - 1,
		kill: func(arm func(*storage.FileBackend)) error {
			tr, err := Open(path, opts)
			if err != nil {
				return err
			}
			arm(tr.fileBackend(t))
			return tr.BulkLoad(PR, rebuild)
		},
		reopen: func() (*Tree, error) { return Open(path, nil) },
		check: func(what string, crashed bool, re *Tree) {
			if !crashed {
				t.Fatalf("%s: the rebuild outlived its crash point", what)
			}
			if re.Len() != len(base) {
				t.Errorf("%s: reopened %d items, want the committed base's %d", what, re.Len(), len(base))
			}
			if err := recoverPanic(re.Validate); err != nil {
				t.Errorf("%s: reopened tree fails Validate: %v", what, err)
			}
		},
	}.run(t)
}

// TestOpenMissingLog: an index whose log is gone since its last checkpoint
// opens to that checkpoint with a fresh log, which carries the next commit
// through a crash (see openWithoutLog).
func TestOpenMissingLog(t *testing.T) {
	openWithoutLog(t, func(wal string) error { return os.Remove(wal) })
}

// TestOpenLogCutBelowHeader: the same for a log cut shorter than its
// header, which holds no commit.
func TestOpenLogCutBelowHeader(t *testing.T) {
	openWithoutLog(t, func(wal string) error { return os.Truncate(wal, 10) })
}

// openWithoutLog checkpoints a dynamic index, damages its log, and
// requires the reopen to answer with the checkpoint's digest; then one
// insert commits, the process dies without a checkpoint, and the next
// reopen re-applies the insert from the fresh log.
func openWithoutLog(t *testing.T, damage func(wal string) error) {
	items := crashItems(rand.New(rand.NewSource(35)), 301, 0)
	path := filepath.Join(t.TempDir(), "d.prd")
	d, err := CreateDynamic(path, &Options{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items[:300] {
		mustInsert(t, d, it)
	}
	want := indexDigest(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := damage(path + ".wal"); err != nil {
		t.Fatal(err)
	}
	if d, err = OpenDynamic(path, nil); err != nil {
		t.Fatal(err)
	}
	if got := indexDigest(t, d); got != want {
		t.Fatalf("opened to digest %08x, the checkpoint's is %08x", got, want)
	}
	mustInsert(t, d, items[300])
	want = indexDigest(t, d)
	d.fileBackend(t).Abandon()
	if d, err = OpenDynamic(path, nil); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := indexDigest(t, d); got != want {
		t.Errorf("reopened after the crash to digest %08x, the committed insert's is %08x", got, want)
	}
	if r := d.Recovery(); r == nil || r.ReappliedNotes != 1 {
		t.Errorf("recovery %+v, want the one insert re-applied", r)
	}
}
