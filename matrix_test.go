package prtree_test

// The query matrix: every structure of the repository, on every input of
// the zoo (internal/zoo), answers every query class — window, point,
// contained, k-NN, limit and cancel — exactly as brute force does, under
// every configuration the structure has: loader, backend, block size and
// cache capacity for a Tree, a reopen for the file-backed indexes, the
// shard count for a served Set, the split rule for the update heuristics.
// On top of the oracle it holds the properties that tie configurations
// together: a Tree answers with the same results, QueryStats and IOStats
// on the in-memory and the file backend; a demand read is exactly a cache
// miss at every capacity; a served Set's results are bit-identical to one
// tree's; and every page has format flag 0 (Validate). A failure prints one
// line: the zoo entry, n, seed, structure, configuration and query.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"prtree"
	"prtree/internal/bulk"
	"prtree/internal/experiments"
	"prtree/internal/extmem"
	"prtree/internal/geom"
	"prtree/internal/logmethod"
	"prtree/internal/parallel"
	"prtree/internal/pseudo"
	"prtree/internal/rtree"
	"prtree/internal/serve"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// input is one zoo entry drawn at (n, seed), with its queries, the
// oracle's answers over all its items, and the same over the items a
// dynamic structure keeps after the matrix's delete stream (live).
type input struct {
	entry string
	n     int
	seed  int64
	items []geom.Item
	qs    []zoo.Query
	wants []*zoo.Want
	live  []geom.Item
	lwant []*zoo.Want
}

var inputs sync.Map // "entry/n/seed" → func() *input

// load returns the memoized input; every structure built on it shares it.
func load(e zoo.Entry, n int, seed int64) *input {
	key := fmt.Sprintf("%s/%d/%d", e.Name, n, seed)
	f, _ := inputs.LoadOrStore(key, sync.OnceValue(func() *input {
		in := &input{entry: e.Name, n: n, seed: seed, items: e.Gen(n, seed)}
		in.qs = zoo.Queries(in.items, 24, seed+1)
		dead := make([]bool, len(in.items))
		for j := 2; j < len(in.items); j += 3 {
			dead[j/2] = true // as stream deletes
		}
		for i, it := range in.items {
			if !dead[i] {
				in.live = append(in.live, it)
			}
		}
		for _, q := range in.qs {
			in.wants = append(in.wants, zoo.Expect(in.items, q))
			in.lwant = append(in.lwant, zoo.Expect(in.live, q))
		}
		return in
	}))
	return f.(func() *input)()
}

// fatal fails the test with the one-line repro of a cell of the matrix;
// q is the query, or nil for a failure of the structure as a whole.
func (in *input) fatal(t *testing.T, structure, config string, q any, err error) {
	t.Helper()
	t.Fatalf("repro: entry=%s n=%d seed=%d structure=%s config=%s query=%v: %v", in.entry, in.n, in.seed, structure, config, q, err)
}

// stream inserts in.items into a dynamic structure, and after each item
// j = 3k+2 deletes item j/2: an item of a level as often as one of the
// buffer. in.live is what it leaves.
func stream(t *testing.T, in *input, structure string, insert func(geom.Item), del func(geom.Item) bool) {
	for j, it := range in.items {
		insert(it)
		if j%3 == 2 && !del(in.items[j/2]) {
			in.fatal(t, structure, "stream", nil, fmt.Errorf("delete of live item %d failed", j/2))
		}
	}
}

// answerer runs one query on a structure. It returns errUnsupported for a
// class the structure lacks.
type answerer func(ctx context.Context, q zoo.Query) ([]geom.Item, error)

var errUnsupported = errors.New("unsupported query class")

var canceled = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// check runs every query of in on a, against wants — k-NN ranked, ties
// broken by ID, as every structure here documents — and returns the
// answers in query order. With wants nil it only requires each query to
// succeed. With cancel set it also runs each query under a canceled
// context: the query fails with context.Canceled having reported only
// items of the answer, or succeeds with the whole answer.
func check(t *testing.T, in *input, wants []*zoo.Want, structure, config string, cancel bool, a answerer) [][]geom.Item {
	t.Helper()
	out := make([][]geom.Item, len(in.qs))
	for i, q := range in.qs {
		got, err := a(context.Background(), q)
		if errors.Is(err, errUnsupported) {
			continue
		}
		if err == nil && wants != nil {
			err = wants[i].CheckRanked(got)
		}
		if err != nil {
			in.fatal(t, structure, config, q, err)
		}
		out[i] = got
		if !cancel {
			continue
		}
		got, err = a(canceled, q)
		switch {
		case errors.Is(err, context.Canceled):
			err = wants[i].CheckSubset(got)
		case err == nil:
			err = wants[i].CheckRanked(got)
		}
		if err != nil {
			in.fatal(t, structure, config, q, fmt.Errorf("canceled: %w", err))
		}
	}
	return out
}

// querier is the Query surface a Tree and a Dynamic share.
type querier interface {
	Collect(prtree.Query) ([]prtree.Item, error)
	CollectNearest(prtree.Query) ([]prtree.Neighbor, error)
}

// run answers q through the public Query surface and writes the query's
// statistics to st.
func run(ctx context.Context, s querier, q zoo.Query, st *prtree.QueryStats) ([]geom.Item, error) {
	if q.Kind == zoo.Nearest {
		nb, err := s.CollectNearest(prtree.Nearest(q.X, q.Y, q.K).WithContext(ctx).WithStats(st))
		return neighborItems(nb, q, err)
	}
	pq := prtree.Window(q.Rect)
	if q.Kind == zoo.Contained {
		pq = prtree.Contained(q.Rect)
	}
	return s.Collect(pq.WithLimit(q.Limit).WithContext(ctx).WithStats(st))
}

// facade is run as an answerer, appending each uncanceled query's
// statistics to stats when it is not nil.
func facade(s querier, stats *[]prtree.QueryStats) answerer {
	return func(ctx context.Context, q zoo.Query) ([]geom.Item, error) {
		var st prtree.QueryStats
		got, err := run(ctx, s, q, &st)
		if stats != nil && ctx == context.Background() {
			*stats = append(*stats, st)
		}
		return got, err
	}
}

// neighborItems returns the items of nb, the answer to q, and err, or an
// error for a neighbor whose distance is not its item's.
func neighborItems(nb []prtree.Neighbor, q zoo.Query, err error) ([]geom.Item, error) {
	var out []geom.Item
	for _, n := range nb {
		if d := n.Item.Rect.Dist2(q.X, q.Y); n.Dist2 != d && err == nil {
			err = fmt.Errorf("item %d reported at distance² %v, not %v", n.Item.ID, n.Dist2, d)
		}
		out = append(out, n.Item)
	}
	return out, err
}

// logmethodAnswerer answers on a logmethod.Tree through its executor.
func logmethodAnswerer(tr *logmethod.Tree) answerer {
	return func(ctx context.Context, q zoo.Query) ([]geom.Item, error) {
		opt := rtree.RunOptions{Limit: q.Limit, Cancel: ctx.Err}
		if q.Kind == zoo.Nearest {
			nb, _, err := tr.AppendNearest(nil, q.X, q.Y, q.K, opt)
			return neighborItems(nb, q, err)
		}
		var out []geom.Item
		_, err := tr.RunWindow(q.Rect, q.Kind == zoo.Contained, func(it geom.Item) bool {
			out = append(out, it)
			return true
		}, opt)
		return out, err
	}
}

// windowsOnly answers windows and limited windows by visiting candidates
// with scan, which stops when its callback returns false.
func windowsOnly(scan func(q geom.Rect, fn func(geom.Item) bool)) answerer {
	return func(ctx context.Context, q zoo.Query) ([]geom.Item, error) {
		if q.Kind != zoo.Window || ctx != context.Background() {
			return nil, errUnsupported
		}
		var out []geom.Item
		scan(q.Rect, func(it geom.Item) bool {
			out = append(out, it)
			return q.Limit == 0 || len(out) < q.Limit
		})
		return out, nil
	}
}

var loaders = []prtree.Loader{prtree.PR, prtree.Hilbert, prtree.Hilbert4D, prtree.TGS}

// capacities is the cache sweep a file tree is reopened at; -1 is
// unbounded.
var capacities = []int{1, 2, 3, 8, 32, -1}

// matrixN is the size every zoo entry is drawn at; the file-backed
// dynamic index, whose every mutation is a log fsync, takes fileDynN.
const matrixN, fileDynN = 800, 120

// sweep names the entries that run every configuration: Western, which
// the per-configuration tests this matrix replaced ran on, and the
// grid-snapped set, whose queries tie on page boundaries. Every other
// entry builds one loader's tree on file as well, and reopens it at one
// capacity, both rotating with the entry, and serves a Set of three
// shards: a file costs its fsyncs, and each takes milliseconds.
var sweep = map[string]bool{"western": true, "snapped16": true}

// blocks names the entries built at the block sizes a page holds 14, 28
// and 227 entries at, at three seeds: full-precision and grid-snapped
// data. external names those the external grid build's groups answer.
var (
	blocks   = map[string]bool{"uniform05": true, "snapped16": true}
	external = map[string]bool{"uniform02": true, "western": true, "duplicates": true}
)

func TestQueryMatrix(t *testing.T) {
	for k, e := range zoo.Entries {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			in := load(e, matrixN, 1)
			for i, l := range loaders {
				var caps []int // in memory only
				switch {
				case sweep[e.Name]:
					caps = capacities
				case i == k%len(loaders):
					caps = capacities[k%len(capacities):][:1]
				}
				checkTreeBackends(t, in, l, 4096, caps)
			}
			checkPseudo(t, in)
			checkLogmethod(t, in)
			checkDynamic(t, in)
			if sweep[e.Name] {
				checkDynamicFile(t, load(e, fileDynN, 1))
			}
			checkHTree(t, in)
			shards := []int{3}
			if sweep[e.Name] {
				shards = []int{1, 3, 4}
			}
			checkSet(t, in, shards)
		})
		for seed := int64(1); seed <= 3 && blocks[e.Name]; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d/blocks", e.Name, seed), func(t *testing.T) {
				t.Parallel()
				in := load(e, matrixN, seed)
				for _, block := range []int{512, 1024, 8192} {
					for _, l := range loaders {
						checkTreeBackends(t, in, l, block, nil)
					}
				}
			})
		}
	}
	t.Run("external-groups", func(t *testing.T) {
		for _, e := range zoo.Entries {
			if external[e.Name] {
				checkExternalGroups(t, load(e, matrixN, 1))
			}
		}
	})
}

// checkTreeBackends builds in with loader l on the in-memory backend and
// on an index file, both at cache capacity 8, and requires the oracle's
// answers in memory, the same results and QueryStats query by query on
// file, and equal IOStats in which every demand read is a cache miss. The
// file is then reopened at each of caps, where every answer must equal the
// in-memory tree's and demand reads must still equal misses. With caps
// nil only the in-memory tree is built.
func checkTreeBackends(t *testing.T, in *input, l prtree.Loader, block int, caps []int) {
	t.Helper()
	opts := &prtree.Options{BlockSize: block, CacheCapacity: 8}
	config := fmt.Sprintf("block=%d cap=8", block)
	mem := prtree.BulkWith(l, in.items, opts)
	structure := "Tree/" + l.String()
	if mem.Len() != len(in.items) {
		in.fatal(t, structure, config, nil, fmt.Errorf("holds %d of %d items", mem.Len(), len(in.items)))
	}
	if caps == nil {
		if err := mem.Validate(); err != nil {
			in.fatal(t, structure, config, nil, err)
		}
		check(t, in, in.wants, structure, config, true, facade(mem, nil))
		return
	}
	path := filepath.Join(t.TempDir(), "matrix.pr")
	file, err := prtree.Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if io := file.IOStats(); io.Total() != 0 {
		t.Fatalf("Create did block I/O %v: an empty index owns no page", io)
	}
	if err := file.BulkLoad(l, in.items); err != nil {
		t.Fatal(err)
	}
	buildM, buildF := mem.IOStats(), file.IOStats()
	if buildM != buildF || int(buildF.Writes) != file.Nodes() || buildF.Reads != 0 {
		in.fatal(t, structure, config, nil, fmt.Errorf("build I/O in memory %v, on file %v, for %d pages", buildM, buildF, file.Nodes()))
	}
	if mem.Len() != file.Len() || mem.Height() != file.Height() || mem.Nodes() != file.Nodes() {
		in.fatal(t, structure, config, nil, fmt.Errorf("shape in memory %d/%d/%d, on file %d/%d/%d",
			mem.Len(), mem.Height(), mem.Nodes(), file.Len(), file.Height(), file.Nodes()))
	}
	for _, tr := range []*prtree.Tree{mem, file} {
		if err := tr.Validate(); err != nil {
			in.fatal(t, structure, config, nil, err)
		}
		tr.ResetIOStats()
	}
	csM, csF := mem.CacheStats(), file.CacheStats()
	var stM, stF []prtree.QueryStats
	gotM := check(t, in, in.wants, structure, config, true, facade(mem, &stM))
	gotF := check(t, in, nil, "", "", false, facade(file, &stF))
	if !slices.EqualFunc(gotM, gotF, slices.Equal) || !reflect.DeepEqual(stM, stF) {
		in.fatal(t, structure, config, nil, errors.New("results or QueryStats differ between the backends"))
	}
	ioM, ioF := mem.IOStats(), file.IOStats()
	missM, missF := mem.CacheStats().Misses-csM.Misses, file.CacheStats().Misses-csF.Misses
	if ioM != ioF || ioM.Reads != missM || ioF.Reads != missF {
		in.fatal(t, structure, config, nil, fmt.Errorf("query I/O in memory %v (%d misses), on file %v (%d misses)", ioM, missM, ioF, missF))
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	for _, capacity := range caps {
		tr, err := prtree.Open(path, &prtree.Options{CacheCapacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		got := check(t, in, nil, "", "", false, facade(tr, nil))
		io, cs := tr.IOStats(), tr.CacheStats()
		if err := tr.Validate(); err != nil || !slices.EqualFunc(got, gotM, slices.Equal) || io.Reads != cs.Misses {
			in.fatal(t, structure, fmt.Sprintf("block=%d reopened cap=%d", block, capacity), nil,
				fmt.Errorf("results differ from memory's, %d demand reads for %d misses, or invalid: %v", io.Reads, cs.Misses, err))
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkPseudo checks the pseudo-PR-tree (B = 16, leaves rounded to B).
func checkPseudo(t *testing.T, in *input) {
	tr := pseudo.Build(in.items, 16, true, 1)
	if err := tr.Validate(); err != nil {
		in.fatal(t, "pseudo", "B=16", nil, err)
	}
	check(t, in, in.wants, "pseudo", "B=16", false, windowsOnly(func(q geom.Rect, fn func(geom.Item) bool) {
		tr.Query(q, fn)
	}))
}

// checkExternalGroups: the external grid build's leaf groups, over more
// records than its memory holds, partition the input, so the windows
// answered from the groups whose bounding box meets them are exact.
func checkExternalGroups(t *testing.T, in *input) {
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	var groups [][]geom.Item
	extmem.BuildPseudo(extmem.NewItemFileFrom(storage.NewDisk(storage.DefaultBlockSize), in.items), 16, 4*per,
		func(lg pseudo.LeafGroup) { groups = append(groups, slices.Clone(lg.Items)) })
	check(t, in, in.wants, "extmem.BuildPseudo", fmt.Sprintf("B=16 M=%d", 4*per), false,
		windowsOnly(func(q geom.Rect, fn func(geom.Item) bool) {
			for _, g := range groups {
				if !q.Intersects(geom.ItemsMBR(g)) {
					continue
				}
				for _, it := range g {
					if q.Intersects(it.Rect) && !fn(it) {
						return
					}
				}
			}
		}))
}

// checkLogmethod checks a logmethod.Tree (fanout 16, base 16) after the
// delete stream, with items left in its buffer.
func checkLogmethod(t *testing.T, in *input) {
	tr := logmethod.New(storage.NewPager(storage.NewDisk(storage.DefaultBlockSize), -1), bulk.Options{Fanout: 16}, 16)
	stream(t, in, "logmethod", tr.Insert, tr.Delete)
	if tr.BufferLen() == 0 || tr.Levels() == 0 || tr.Len() != len(in.live) {
		in.fatal(t, "logmethod", "fanout=16 base=16", nil, fmt.Errorf("%d live in %d levels and a buffer of %d, want %d live in both",
			tr.Len(), tr.Levels(), tr.BufferLen(), len(in.live)))
	}
	check(t, in, in.lwant, "logmethod", "fanout=16 base=16", true, logmethodAnswerer(tr))
}

// mutations are the Dynamic's InsertE and DeleteE as stream takes them.
func mutations(t *testing.T, d *prtree.Dynamic) (func(geom.Item), func(geom.Item) bool) {
	return func(it geom.Item) {
			if err := d.InsertE(it); err != nil {
				t.Fatal(err)
			}
		}, func(it geom.Item) bool {
			ok, err := d.DeleteE(it)
			if err != nil {
				t.Fatal(err)
			}
			return ok
		}
}

// checkDynamic checks a Dynamic in memory after the delete stream.
func checkDynamic(t *testing.T, in *input) {
	d := prtree.NewDynamic(nil)
	ins, del := mutations(t, d)
	stream(t, in, "Dynamic", ins, del)
	if d.Len() != len(in.live) {
		in.fatal(t, "Dynamic", "backend=memory", nil, fmt.Errorf("holds %d of %d live items", d.Len(), len(in.live)))
	}
	check(t, in, in.lwant, "Dynamic", "backend=memory", true, facade(d, nil))
}

// checkDynamicFile checks a Dynamic on file, whose every mutation is
// durable, after the delete stream and again after a reopen.
func checkDynamicFile(t *testing.T, in *input) {
	path := filepath.Join(t.TempDir(), "dynamic.pr")
	d, err := prtree.CreateDynamic(path, &prtree.Options{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ins, del := mutations(t, d)
	stream(t, in, "Dynamic", ins, del)
	check(t, in, in.lwant, "Dynamic", "backend=file block=1024", true, facade(d, nil))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = prtree.OpenDynamic(path, &prtree.Options{CacheCapacity: 3}); err != nil {
		t.Fatal(err)
	}
	check(t, in, in.lwant, "Dynamic", "backend=file block=1024 reopened cap=3", true, facade(d, nil))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkHTree checks the classical update heuristics, Guttman's and R*'s,
// at the fanout of a 1 KiB page after the delete stream: Validate must
// return exactly the live items, and every window count the oracle's.
func checkHTree(t *testing.T, in *input) {
	for _, rstar := range []bool{false, true} {
		h := experiments.NewHTree(rtree.New(storage.NewPager(storage.NewDisk(1024), -1), rtree.Config{}), rstar)
		stream(t, in, "HTree", h.Insert, h.Delete)
		items, err := h.Validate()
		if err == nil && !slices.Equal(zoo.Sorted(items), zoo.Sorted(in.live)) {
			err = fmt.Errorf("holds %d items, %d live, or other ones", len(items), len(in.live))
		}
		config := fmt.Sprintf("rstar=%v fanout=28", rstar)
		if err != nil {
			in.fatal(t, "HTree", config, nil, err)
		}
		for i, q := range in.qs {
			if q.Kind != zoo.Window || q.Limit > 0 {
				continue
			}
			if _, n := h.Count(q.Rect); n != in.lwant[i].Len() {
				in.fatal(t, "HTree", config, q, fmt.Errorf("%d results, brute force %d", n, in.lwant[i].Len()))
			}
		}
	}
}

// checkSet serves in from each count of shards and requires results
// bit-identical to brute force's in the set's merge order: unlimited
// windows and containment queries item for item in the canonical order,
// k-NN ranked with its distances. As every tree answers as brute force
// does, that is one tree's answer. A limited query returns the same
// subset, in merge order, every time it runs.
func checkSet(t *testing.T, in *input, shards []int) {
	for _, n := range shards {
		config := fmt.Sprintf("shards=%d", n)
		set := openSet(t, in.items, n)
		if set.Len() != len(in.items) || set.MBR() != geom.ItemsMBR(in.items) {
			in.fatal(t, "Set", config, nil, fmt.Errorf("holds %d items in %v", set.Len(), set.MBR()))
		}
		check(t, in, in.wants, "Set", config, true, func(ctx context.Context, q zoo.Query) ([]geom.Item, error) {
			got, err := setAnswer(ctx, set, q)
			if err != nil || ctx != context.Background() || q.Kind == zoo.Nearest {
				return got, err
			}
			if again, _ := setAnswer(ctx, set, q); !slices.Equal(again, got) || !slices.IsSortedFunc(got, zoo.Less) {
				return nil, fmt.Errorf("not the same items in merge order on a second run")
			}
			return got, nil
		})
		// k-NN beyond what any one shard holds.
		q := zoo.Query{Kind: zoo.Nearest, X: in.qs[0].Rect.MinX, Y: in.qs[0].Rect.MinY, K: len(in.items)/n + 5}
		got, err := setAnswer(context.Background(), set, q)
		if err == nil {
			err = zoo.Expect(in.items, q).CheckRanked(got)
		}
		if err != nil {
			in.fatal(t, "Set", config, q, err)
		}
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func openSet(t *testing.T, items []geom.Item, shards int) *serve.Set {
	dir := t.TempDir()
	if _, err := serve.Build(dir, items, serve.BuildOptions{Shards: shards}); err != nil {
		t.Fatal(err)
	}
	set, err := serve.Open(dir, serve.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// setAnswer runs q on a Set.
func setAnswer(ctx context.Context, set *serve.Set, q zoo.Query) ([]geom.Item, error) {
	switch q.Kind {
	case zoo.Nearest:
		nb, _, err := set.Nearest(ctx, q.X, q.Y, q.K)
		return neighborItems(nb, q, err)
	case zoo.Contained:
		got, _, err := set.Contained(ctx, q.Rect, q.Limit)
		return got, err
	}
	got, _, err := set.Window(ctx, q.Rect, q.Limit)
	return got, err
}

// TestQueryMatrixConcurrent: one query per goroutine answers as the
// sequential run does, results and QueryStats query by query, on every
// loader's tree in memory and on file, and on a Set of three shards, over
// the entries every configuration runs on.
func TestQueryMatrixConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, e := range zoo.Entries {
		if !sweep[e.Name] {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			in := load(e, matrixN, 1)
			concurrent := func(a func(i int) ([]geom.Item, error)) [][]geom.Item {
				out := make([][]geom.Item, len(in.qs))
				errs := make([]error, len(in.qs))
				parallel.Run(4, len(in.qs), func(i int) { out[i], errs[i] = a(i) })
				if err := errors.Join(errs...); err != nil {
					t.Fatal(err)
				}
				return out
			}
			for _, l := range loaders {
				file, err := prtree.Create(filepath.Join(t.TempDir(), "concurrent.pr"), &prtree.Options{CacheCapacity: 8})
				if err != nil {
					t.Fatal(err)
				}
				if err := file.BulkLoad(l, in.items); err != nil {
					t.Fatal(err)
				}
				for _, tr := range []*prtree.Tree{prtree.BulkWith(l, in.items, &prtree.Options{CacheCapacity: 8}), file} {
					var seqStats []prtree.QueryStats
					seq := check(t, in, in.wants, "Tree/"+l.String(), "sequential", false, facade(tr, &seqStats))
					parStats := make([]prtree.QueryStats, len(in.qs))
					par := concurrent(func(i int) ([]geom.Item, error) {
						return run(context.Background(), tr, in.qs[i], &parStats[i])
					})
					if !reflect.DeepEqual(seq, par) || !reflect.DeepEqual(seqStats, parStats) {
						in.fatal(t, "Tree/"+l.String(), "cap=8 concurrent", nil, errors.New("results or QueryStats differ from the sequential run's"))
					}
				}
				if err := file.Close(); err != nil {
					t.Fatal(err)
				}
			}
			set := openSet(t, in.items, 3)
			defer set.Close()
			seq := check(t, in, in.wants, "Set", "shards=3", false, func(ctx context.Context, q zoo.Query) ([]geom.Item, error) {
				return setAnswer(ctx, set, q)
			})
			if !reflect.DeepEqual(seq, concurrent(func(i int) ([]geom.Item, error) { return setAnswer(context.Background(), set, in.qs[i]) })) {
				in.fatal(t, "Set", "shards=3 concurrent", nil, errors.New("results differ from the sequential run's"))
			}
		})
	}
}

// FuzzQuery draws a zoo entry at a fuzzed seed and checks one fuzzed query
// of any class on every loader's tree (fanout 14, so three levels) and on
// a Dynamic. The query bytes are its class, four fractions of the input's
// bounding box, K and a limit.
func FuzzQuery(f *testing.F) {
	for i := range zoo.Entries {
		f.Add(uint8(i), int64(i), []byte{uint8(i), 10, 20, 200, 220, 7, 2})
	}
	f.Fuzz(func(t *testing.T, entry uint8, seed int64, raw []byte) {
		e := zoo.Entries[int(entry)%len(zoo.Entries)]
		items := e.Gen(300, seed)
		var b [7]byte
		copy(b[:], raw)
		w := geom.ItemsMBR(items)
		x := func(v byte) float64 { return w.MinX + float64(v)/255*(w.MaxX-w.MinX) }
		y := func(v byte) float64 { return w.MinY + float64(v)/255*(w.MaxY-w.MinY) }
		q := zoo.Query{Kind: zoo.Kind(b[0] % 3), Rect: geom.NewRect(x(b[1]), y(b[2]), x(b[3]), y(b[4])),
			X: x(b[1]), Y: y(b[2]), K: int(b[5] % 40)}
		if q.Kind != zoo.Nearest {
			q.Limit = int(b[6] % 4)
		}
		want := zoo.Expect(items, q)
		d := prtree.NewDynamic(&prtree.Options{BlockSize: 512})
		for _, it := range items {
			if err := d.InsertE(it); err != nil {
				t.Fatal(err)
			}
		}
		structures := map[string]querier{"Dynamic": d}
		for _, l := range loaders {
			structures["Tree/"+l.String()] = prtree.BulkWith(l, items, &prtree.Options{BlockSize: 512})
		}
		for name, s := range structures {
			got, err := run(context.Background(), s, q, nil)
			if err == nil {
				err = want.CheckRanked(got)
			}
			if err != nil {
				t.Fatalf("repro: entry=%s n=300 seed=%d structure=%s config=block=512 query=%v: %v", e.Name, seed, name, q, err)
			}
		}
	})
}
