package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"prtree/internal/bulk"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// The durability experiment runs on the real file backend (the only one
// with a write-ahead log), not the simulated disk: FaultSweep drives the
// recovery machinery through every injected failure mode.

// commitTx brackets one rebuild in a backend transaction exactly the way
// the public facade does: Begin, rebuild, stage metadata, Commit.
func commitTx(b storage.Backend, tr **rtree.Tree, fn func()) error {
	tx := storage.EnsureTransactional(b)
	tx.Begin()
	done := false
	defer func() {
		if !done {
			tx.Rollback()
		}
	}()
	fn()
	b.SetMeta((*tr).EncodeMeta())
	done = true
	if err := tx.Commit(); err != nil {
		tx.Rollback()
		return err
	}
	return nil
}

// safeCall runs fn, converting a panic into an error, so torture results
// (a torn page that fails structural decoding, say) land in a table row
// instead of killing the harness.
func safeCall(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if perr, ok := r.(error); ok {
				err = fmt.Errorf("panic: %w", perr)
			} else {
				err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	return fn()
}

// FaultSweep drives a file-backed tree through every Faulty mode: build a
// committed base, arm the fault, rebuild the tree over a growing item set
// — one committed transaction per rebuild, the way Tree.BulkLoad mutates
// a static index — until the backend errors, dies or silently stops
// persisting, then model process death (Abandon), reopen and report which
// rebuild recovery restored. The invariant on the honest modes (error,
// crash): the last acked rebuild is recovered and nothing torn survives.
// The stop mode is the treacherous disk — it acks commits it dropped, so
// recovery honestly reports an earlier one.
func FaultSweep(cfg Config) Table {
	cfg = cfg.normalized()
	t := Table{
		ID:    "faults",
		Title: "Fault-injected rebuilds and what recovery restores (file backend)",
		Columns: []string{
			"fault", "workload outcome", "acked rebuilds", "recovered", "reopen", "validate", "scrub",
		},
		Notes: "rebuild i loads the base set plus i items, one transaction; fault armed 25 counted ops into the rebuilds; the process then dies without checkpointing, so every reopen adopts the log's last committed state; a torn write is an application-level short write the checksum cannot see (it covers what was written) — structural validation is the net that catches it",
	}
	const rebuilds = 40
	items := dataset.Western(cfg.n(2000)+rebuilds, cfg.Seed)
	for _, mode := range []storage.FaultMode{
		storage.FaultError, storage.FaultTorn, storage.FaultCrash, storage.FaultStop,
	} {
		t.Rows = append(t.Rows, faultRow(cfg, mode, items, rebuilds))
	}
	return t
}

// faultRow runs one mode: rebuild i (0 is the base) holds the first
// len(items)-rebuilds+i items, so the recovered tree's size names the
// rebuild it came from.
func faultRow(cfg Config, mode storage.FaultMode, items []geom.Item, rebuilds int) []string {
	dir, err := os.MkdirTemp("", "prtree-faults")
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "victim.pr")

	fb, err := storage.CreateFile(path, storage.DefaultBlockSize)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	faulty := storage.NewFaulty(fb, mode, 0) // disarmed during the base build
	pager := storage.NewPager(faulty, 0)
	base := len(items) - rebuilds
	var tree *rtree.Tree
	rebuild := func(i int) func() {
		return func() {
			if tree != nil {
				tree.Release()
			}
			tree = bulk.PRTreeSlice(pager, items[:base+i], cfg.bulkOptions())
		}
	}
	if err := commitTx(faulty, &tree, rebuild(0)); err != nil {
		panic(fmt.Sprintf("experiments: base build: %v", err))
	}
	if err := faulty.Sync(); err != nil {
		panic(fmt.Sprintf("experiments: base checkpoint: %v", err))
	}

	faulty.Arm(25)
	acked := 0
	outcome := "completed"
	for i := 1; i <= rebuilds; i++ {
		err := safeCall(func() error { return commitTx(faulty, &tree, rebuild(i)) })
		if err != nil {
			if errors.Is(err, storage.ErrInjectedFault) {
				outcome = fmt.Sprintf("fault surfaced at rebuild %d", i)
			} else {
				outcome = err.Error()
			}
			break
		}
		acked++
	}
	fb.Abandon() // the process dies; no checkpoint

	re, err := storage.OpenFile(path, 0)
	if err != nil {
		return []string{mode.String(), outcome, fmtInt(uint64(acked)), "-",
			fmt.Sprintf("FAILED: %v", err), "-", "-"}
	}
	defer re.Abandon()
	reopen := "clean"
	if ri := re.RecoveryInfo(); ri != nil {
		reopen = fmt.Sprintf("recovered (%d txs replayed)", ri.ReplayedTxs)
	}
	recovered := "-"
	validate := "ok"
	if err := safeCall(func() error {
		rt, err := rtree.OpenFromMeta(storage.NewPager(re, 0), re.Meta())
		if err != nil {
			return err
		}
		recovered = fmtInt(uint64(rt.Len() - base))
		return rt.Validate()
	}); err != nil {
		validate = err.Error()
	}
	scrub := "ok"
	if err := safeCall(re.Fsck); err != nil {
		scrub = err.Error()
	}
	return []string{mode.String(), outcome, fmtInt(uint64(acked)), recovered, reopen, validate, scrub}
}
