package prtree

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prtree/internal/dataset"
	"prtree/internal/storage"
)

// The crash-recovery property test: run a rebuild workload against a
// file-backed tree, kill the process (via the backend's deterministic
// crash points) at EVERY persistence step — every WAL record append,
// fsync, page write and header rewrite — reopen, and require that the
// recovered index validates and answers every query exactly like one of
// the workload's committed states. A crash must never surface a torn
// mix of two transactions.

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

// crashDigest fingerprints the tree's entire query surface: windows,
// point, containment, kNN and batch results, in result order.
func crashDigest(t *testing.T, tr *Tree) uint32 {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	windows := []Rect{
		NewRect(0.1, 0.1, 0.4, 0.4),
		NewRect(0.5, 0.5, 0.9, 0.9),
		NewRect(0.25, 0.6, 0.35, 0.95),
		NewRect(0, 0, 1, 1),
		NewRect(0.42, 0.13, 0.58, 0.27),
	}
	var sb strings.Builder
	dump := func(kind string, items []Item) {
		fmt.Fprintf(&sb, "%s:%d;", kind, len(items))
		for _, it := range items {
			fmt.Fprintf(&sb, "%d,%v;", it.ID, it.Rect)
		}
	}
	for _, q := range windows {
		dump("w", collect(t, tr, Window(q)))
		dump("c", collect(t, tr, Contained(q)))
	}
	dump("p", collect(t, tr, Point(0.33, 0.44)))
	dump("p", collect(t, tr, Point(0.71, 0.18)))
	for _, nn := range [][]Neighbor{nearest(t, tr, 0.2, 0.8, 10), nearest(t, tr, 0.9, 0.1, 10)} {
		fmt.Fprintf(&sb, "n:%d;", len(nn))
		for _, n := range nn {
			fmt.Fprintf(&sb, "%d,%v,%g;", n.Item.ID, n.Item.Rect, n.Dist2)
		}
	}
	return crc32.ChecksumIEEE([]byte(sb.String()))
}

// crashWorkload applies the deterministic mutation sequence a static tree
// knows: three rebuilds — PR, Hilbert, TGS — over different item sets, one
// transaction each, the first into the empty index. afterTx, when non-nil,
// is called after every committed transaction.
func crashWorkload(tr *Tree, afterTx func()) {
	r := rand.New(rand.NewSource(7))
	for i, l := range []Loader{PR, Hilbert, TGS} {
		if err := tr.BulkLoad(l, crashItems(r, 180-30*i, 1000*i)); err != nil {
			panic(err)
		}
		if afterTx != nil {
			afterTx()
		}
	}
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

// crashBackend returns a file-backed tree's index file store.
func crashBackend(t *testing.T, tr *Tree) *storage.FileBackend {
	t.Helper()
	if tr.fb == nil {
		t.Fatal("file-backed tree has no FileBackend")
	}
	return tr.fb
}

func TestCrashRecoveryEveryBoundary(t *testing.T) {
	dir := t.TempDir()
	opts := &Options{BlockSize: 512}

	// Pristine empty index every crash run starts from.
	pristine := filepath.Join(dir, "pristine.pr")
	tr, err := Create(pristine, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference run: record the digest of every committed state.
	refPath := filepath.Join(dir, "ref.pr")
	copyCrashFiles(t, pristine, refPath)
	ref, err := Open(refPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	committed := make(map[uint32]int) // digest -> first tx index it appeared
	committed[crashDigest(t, ref)] = 0
	txIndex := 0
	crashWorkload(ref, func() {
		txIndex++
		d := crashDigest(t, ref)
		if _, seen := committed[d]; !seen {
			committed[d] = txIndex
		}
	})
	finalDigest := crashDigest(t, ref)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// Dry run: count the persistence steps the workload + close spend.
	dryPath := filepath.Join(dir, "dry.pr")
	copyCrashFiles(t, pristine, dryPath)
	dry, err := Open(dryPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	dfb := crashBackend(t, dry)
	start := dfb.PersistSteps()
	crashWorkload(dry, nil)
	if err := dry.Close(); err != nil {
		t.Fatal(err)
	}
	totalSteps := dfb.PersistSteps() - start
	if totalSteps < 20 {
		t.Fatalf("workload spent only %d persistence steps; instrumentation broken?", totalSteps)
	}
	t.Logf("workload: %d persistence steps, %d distinct committed states", totalSteps, len(committed))

	// Kill at every boundary. Each iteration replays the workload against
	// a fresh copy with the crash point armed k steps in, then reopens
	// and checks the recovered index is exactly one committed state.
	workPath := filepath.Join(dir, "crash.pr")
	for k := int64(1); k <= totalSteps; k++ {
		copyCrashFiles(t, pristine, workPath)
		victim, err := Open(workPath, opts)
		if err != nil {
			t.Fatalf("step %d: open: %v", k, err)
		}
		fb := crashBackend(t, victim)
		fb.SetCrashAfterSteps(fb.PersistSteps() + k)

		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					err, ok := r.(error)
					if !ok || !errors.Is(err, storage.ErrInjectedFault) {
						t.Fatalf("step %d: panic %v, want ErrInjectedFault", k, r)
					}
					crashed = true
				}
			}()
			crashWorkload(victim, nil)
			if err := victim.Close(); err != nil {
				if !errors.Is(err, storage.ErrInjectedFault) {
					t.Fatalf("step %d: close: %v", k, err)
				}
				return true
			}
			return false
		}()
		if crashed {
			fb.Abandon() // the "process" is dead; drop its descriptors
		}

		re, err := Open(workPath, opts)
		if err != nil {
			t.Fatalf("step %d: reopen after crash: %v", k, err)
		}
		d := crashDigest(t, re)
		if crashed {
			if _, ok := committed[d]; !ok {
				t.Fatalf("step %d: recovered state matches no committed state (recovery: %v)",
					k, re.Recovery())
			}
		} else if d != finalDigest {
			t.Fatalf("step %d: uncrashed run diverged from the reference", k)
		}
		if err := re.CheckPages(); err != nil {
			t.Fatalf("step %d: checksum scrub after recovery: %v", k, err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("step %d: close reopened: %v", k, err)
		}
	}
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
	crashBackend(t, tr).Abandon()

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
	defer crashBackend(t, re).Abandon()
	if err := re.CheckPages(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("CheckPages = %v, want wrapped ErrChecksum", err)
	}
}

// TestFaultSweepRecovery drives a file-backed tree through every mode of
// NewFaultyBackend, placed under it with Options.WrapBackend: a committed
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
	for _, mode := range []FaultMode{FaultError, FaultTorn, FaultCrash, FaultStop} {
		path := filepath.Join(t.TempDir(), "victim.pr")
		var faulty *storage.Faulty
		tr, err := Create(path, &Options{WrapBackend: func(b Backend) Backend {
			faulty = NewFaultyBackend(b, mode, 0).(*storage.Faulty) // disarmed for the base
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
		crashBackend(t, tr).Abandon()

		re, err := Open(path, nil)
		if err != nil {
			t.Errorf("%s: reopen failed: %v", mode, err)
			continue
		}
		recovered := re.Len() - base
		validate := recoverPanic(re.Validate)
		scrub := recoverPanic(re.CheckPages)
		crashBackend(t, re).Abandon()
		switch mode {
		case FaultError, FaultCrash:
			if recovered != acked {
				t.Errorf("%s: recovered rebuild %d, acked %d", mode, recovered, acked)
			}
			if validate != nil {
				t.Errorf("%s: recovered tree failed validation: %v", mode, validate)
			}
			if scrub != nil {
				t.Errorf("%s: recovered file failed scrub: %v", mode, scrub)
			}
		case FaultStop:
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
	path := filepath.Join(t.TempDir(), "embed.pr")
	var fb *storage.FileBackend
	opts := &Options{BlockSize: 512, WrapBackend: func(b Backend) Backend {
		fb, _ = storage.AsFile(b)
		return struct{ Backend }{b}
	}}
	// committedBase creates the index under the wrapper and commits and
	// checkpoints the base.
	committedBase := func() *Tree {
		t.Helper()
		tr, err := Create(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(PR, base); err != nil {
			t.Fatal(err)
		}
		if err := tr.Sync(); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	tr := committedBase()
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
	for k := int64(1); k < steps; k += stride {
		tr := committedBase()
		fb.SetCrashAfterSteps(fb.PersistSteps() + k)
		if !expectInjectedCrash(t, fmt.Sprintf("step %d", k), func() error { return tr.BulkLoad(PR, rebuild) }) {
			t.Fatalf("step %d: the rebuild outlived its crash point", k)
		}
		fb.Abandon()

		re, err := Open(path, nil)
		if err != nil {
			t.Fatalf("step %d: reopen: %v", k, err)
		}
		if re.Len() != len(base) {
			t.Errorf("step %d: reopened %d items, want the committed base's %d", k, re.Len(), len(base))
		}
		if err := recoverPanic(re.Validate); err != nil {
			t.Errorf("step %d: reopened tree fails Validate: %v", k, err)
		}
		if err := re.CheckPages(); err != nil {
			t.Errorf("step %d: reopened file fails CheckPages: %v", k, err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
