package prtree

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"prtree/internal/storage"
)

// diskFullChild marks the test binary re-run as TestDiskFullEveryOffset's
// child: the one process whose file-size limit the sweep lowers.
const diskFullChild = "PRTREE_DISK_FULL_CHILD"

// TestDiskFullEveryOffset: a disk that fills up at any byte of a history
// fails the call that needs the byte with an error, never a panic, and the
// index stays what it was after its last acknowledged call. A Tree's
// history (Create, a PR BulkLoad of 3,000 items at 512-byte blocks, Sync,
// a rebuild of 2,000, Close) and a Dynamic's (1,500 inserts, whose carries
// write levels, with a Sync between two phases, Close) each run once
// unlimited, to learn every size the page file and the log reach after a
// call of the store, then again under a file-size limit (RLIMIT_FSIZE) at
// each of those sizes and one byte below each. After the failing call
// every later change and Sync errs, Close returns nil twice, and — the
// limit lifted — the files reopen to the digest of the last acknowledged
// state, sound (Validate, for the Tree, and CheckPages).
//
// The limit is the process's, so the sweep runs in a child: the test
// binary again, with only -test.run set, so that it writes no file but the
// index's. The child ignores SIGXFSZ, so a write past the limit fails with
// EFBIG instead of killing it; a panic does kill it, and the parent reports
// its output.
func TestDiskFullEveryOffset(t *testing.T) {
	if os.Getenv(diskFullChild) == "" {
		start := time.Now()
		cmd := exec.Command(os.Args[0], "-test.run=^TestDiskFullEveryOffset$")
		cmd.Env = append(os.Environ(), diskFullChild+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("the sweep's child: %v\n%s", err, out)
		}
		t.Logf("%s(%v)", out, time.Since(start).Round(time.Millisecond))
		return
	}
	signal.Ignore(syscall.SIGXFSZ)
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	// The Dynamic's first phase leaves a page file that its second phase's
	// carries take past the log's first extension: below that size the log
	// fails first.
	const phase1, phase2 = 800, 700
	r := rand.New(rand.NewSource(61))
	loaded, inserted := crashItems(r, 3000, 0), crashItems(r, phase1+phase2, 3000)
	histories := []diskFullHistory{{
		name: "tree",
		create: func(path string, o *Options) (crashIndex, error) {
			tr, err := Create(path, o)
			if err != nil {
				return nil, err
			}
			return tr, nil
		},
		calls: func(x crashIndex) (history, later []call) {
			tr := x.(*Tree)
			history = []call{
				{"BulkLoad", func() error { return tr.BulkLoad(PR, loaded) }, loaded},
				{"Sync", tr.Sync, loaded},
				{"BulkLoad", func() error { return tr.BulkLoad(PR, loaded[:2000]) }, loaded[:2000]},
				{"Close", tr.Close, loaded[:2000]},
			}
			later = []call{{"BulkLoad", func() error { return tr.BulkLoad(PR, loaded[:100]) }, nil}, {"Sync", tr.Sync, nil}}
			return history, later
		},
		reopen: func(path string) (crashIndex, error) { return Open(path, nil) },
	}, {
		name: "dynamic",
		create: func(path string, o *Options) (crashIndex, error) {
			d, err := CreateDynamic(path, o)
			if err != nil {
				return nil, err
			}
			return d, nil
		},
		calls: func(x crashIndex) (history, later []call) {
			d := x.(*Dynamic)
			for i, it := range inserted {
				if i == phase1 {
					history = append(history, call{"Sync", d.Sync, inserted[:i]})
				}
				history = append(history, call{fmt.Sprintf("InsertE %d", i), func() error { return d.InsertE(it) }, inserted[:i+1]})
			}
			history = append(history, call{"Close", d.Close, inserted})
			later = []call{
				{"InsertE", func() error { return d.InsertE(loaded[0]) }, nil},
				{"DeleteE", func() error { _, err := d.DeleteE(inserted[0]); return err }, nil},
				{"FlushE", d.FlushE, nil},
				{"Sync", d.Sync, nil},
			}
			return history, later
		},
		reopen: func(path string) (crashIndex, error) { return OpenDynamic(path, nil) },
	}}
	for _, h := range histories {
		t.Run(h.name, func(t *testing.T) {
			start := time.Now()
			path := filepath.Join(t.TempDir(), h.name+".pr")
			limits := h.dryRun(t, path)
			failures, digests := map[string]int{}, map[int]uint32{}
			for _, limit := range limits {
				failures[h.run(t, path, limit, lim, digests)]++
			}
			pageWrites := 0
			for what, n := range failures {
				if strings.HasSuffix(what, "writing page") {
					pageWrites += n
				}
			}
			if pageWrites == 0 {
				t.Errorf("no limit failed a page write: %v", failures)
			}
			fmt.Printf("%s: %d limits in %v; the calls and steps that failed: %v\n",
				h.name, len(limits), time.Since(start).Round(time.Millisecond), failures)
		})
	}
}

// call is one call of a history: its name, for the failure report, and
// what the index holds once it has returned nil.
type call struct {
	name  string
	fn    func() error
	holds []Item
}

// diskFullHistory is a history TestDiskFullEveryOffset replays: create
// makes the index, calls returns what is done to it after — history, whose
// last call is Close, and the later calls that must fail once one of
// history's has — and reopen opens the files it leaves.
type diskFullHistory struct {
	name   string
	create func(path string, o *Options) (crashIndex, error)
	calls  func(x crashIndex) (history, later []call)
	reopen func(path string) (crashIndex, error)
}

// sizeProbe is a decorator that records, after every call of the store
// that can write, the sizes of the index file and its log.
type sizeProbe struct {
	Backend
	path  string
	sizes map[int64]bool
}

func (p *sizeProbe) probe() {
	for _, f := range []string{p.path, p.path + ".wal"} {
		if st, err := os.Stat(f); err == nil {
			p.sizes[st.Size()] = true
		}
	}
}

func (p *sizeProbe) Alloc() storage.PageID { defer p.probe(); return p.Backend.Alloc() }
func (p *sizeProbe) Write(id storage.PageID, pages ...[]byte) {
	defer p.probe()
	p.Backend.Write(id, pages...)
}
func (p *sizeProbe) Begin()        { defer p.probe(); p.Backend.Begin() }
func (p *sizeProbe) Commit() error { defer p.probe(); return p.Backend.Commit() }
func (p *sizeProbe) Sync() error   { defer p.probe(); return p.Backend.Sync() }
func (p *sizeProbe) Close() error  { defer p.probe(); return p.Backend.Close() }

// dryRun runs the history without a limit and returns the limits to sweep:
// every size either file reached, and one byte less.
func (h diskFullHistory) dryRun(t *testing.T, path string) (limits []int64) {
	p := &sizeProbe{path: path, sizes: map[int64]bool{}}
	x, err := h.create(path, &Options{BlockSize: 512, WrapBackend: func(b Backend) Backend {
		p.Backend = b
		return p
	}})
	if err != nil {
		t.Fatal(err)
	}
	history, _ := h.calls(x)
	for _, c := range history {
		if err := c.fn(); err != nil {
			t.Fatalf("dry run: %s: %v", c.name, err)
		}
	}
	if err := storage.RemoveFiles(path); err != nil {
		t.Fatal(err)
	}
	for s := range p.sizes {
		limits = append(limits, s-1, s)
	}
	slices.Sort(limits)
	return slices.Compact(limits)
}

// failedStep finds, in the error of a write past the limit, the step of
// the store that failed.
var failedStep = regexp.MustCompile(`storage: ([a-z -]+[a-z])`)

// run replays the history with the file-size limit at limit bytes, checks
// what the failing call left and returns what failed: the call and the
// store's step ("BulkLoad/writing page"), "Create" when no index was made,
// or "none". digests memoizes the reference digest of each
// acknowledged state by its size.
func (h diskFullHistory) run(t *testing.T, path string, limit int64, lim syscall.Rlimit, digests map[int]uint32) (failed string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("%s at a limit of %d bytes: %v", h.name, limit, r))
		}
	}()
	setLimit := func(cur uint64) {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: cur, Max: lim.Max}); err != nil {
			t.Fatal(err)
		}
	}
	setLimit(uint64(limit))
	x, err := h.create(path, &Options{BlockSize: 512})
	if err != nil {
		// Nothing was acknowledged; there is nothing to reopen.
		setLimit(lim.Cur)
		if err := storage.RemoveFiles(path); err != nil {
			t.Fatal(err)
		}
		return "Create"
	}
	history, later := h.calls(x)
	var acked []Item
	failed = "none"
	for _, c := range history {
		err := c.fn()
		if err == nil {
			acked = c.holds
			continue
		}
		step := failedStep.FindStringSubmatch(err.Error())
		if step == nil {
			t.Fatalf("limit %d: %s: %v, not a failed step of the store", limit, c.name, err)
		}
		failed = strings.Fields(c.name)[0] + "/" + step[1]
		for _, l := range later {
			if err := l.fn(); err == nil {
				t.Errorf("limit %d: %s after the failed %s succeeded", limit, l.name, c.name)
			}
		}
		for i := 0; i < 2; i++ {
			if err := x.Close(); err != nil {
				t.Errorf("limit %d: Close %d after the failed %s = %v, want nil", limit, i+1, c.name, err)
			}
		}
		break
	}
	setLimit(lim.Cur)
	re, err := h.reopen(path)
	if err != nil {
		t.Fatalf("limit %d: reopen after %q failed: %v", limit, failed, err)
	}
	want, ok := digests[len(acked)]
	if !ok {
		want = indexDigest(t, BulkWith(PR, acked, nil))
		digests[len(acked)] = want
	}
	if d := indexDigest(t, re); d != want { // indexDigest validates a Tree
		t.Errorf("limit %d: reopened after %q failed to digest %08x, the last acknowledged state's is %08x", limit, failed, d, want)
	}
	if err := re.CheckPages(); err != nil {
		t.Errorf("limit %d: CheckPages: %v", limit, err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if err := storage.RemoveFiles(path); err != nil {
		t.Fatal(err)
	}
	return failed
}
