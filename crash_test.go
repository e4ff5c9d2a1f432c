package prtree

import (
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

// TestFaultSweepRecovery drives a file-backed tree through every mode of
// storage.Faulty, placed under it with Options.WrapBackend: a committed
// base, then rebuilds over a growing item set — one BulkLoad, one
// transaction each; rebuild i holds i items more than the base, so the
// recovered size names the rebuild — with the fault armed 25 counted ops
// in, until the backend errors, dies or silently stops persisting. The
// process then dies without a checkpoint (Abandon) and the index is
// reopened. The honest modes (error, crash) recover exactly the last acked
// rebuild, sound; the stop mode, a disk that acks commits it dropped,
// recovers at most that; a torn write is a short write the checksum
// cannot see (it covers what was written), so its reopened tree need only
// be well formed.
func TestFaultSweepRecovery(t *testing.T) {
	const rebuilds = 40
	items := dataset.Western(1000+rebuilds, 12)
	base := len(items) - rebuilds
	for _, mode := range []storage.FaultMode{storage.FaultError, storage.FaultTorn, storage.FaultCrash, storage.FaultStop} {
		path := filepath.Join(t.TempDir(), "victim.pr")
		var faulty *storage.Faulty
		tr, err := Create(path, &Options{WrapBackend: func(b Backend) Backend {
			faulty = storage.NewFaulty(b, mode, 0) // disarmed for the base
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
		faulty.Arm(25)
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
		case storage.FaultError, storage.FaultCrash:
			if recovered != acked {
				t.Errorf("%s: recovered rebuild %d, acked %d", mode, recovered, acked)
			}
			if validate != nil {
				t.Errorf("%s: recovered tree failed validation: %v", mode, validate)
			}
			if scrub != nil {
				t.Errorf("%s: recovered file failed scrub: %v", mode, scrub)
			}
		case storage.FaultStop:
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
