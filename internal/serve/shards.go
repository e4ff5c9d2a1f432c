package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prtree"
	"prtree/internal/geom"
	"prtree/internal/hilbert"
	"prtree/internal/parallel"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// ManifestName is the manifest file inside a sharded index directory.
const ManifestName = "manifest.json"

// manifestVersion guards the manifest schema.
const manifestVersion = 1

// Manifest describes a sharded index directory: which files hold the
// shards and how they were built. prtool shard writes it; Open reads it.
type Manifest struct {
	Version int `json:"version"`
	// Partition names how items were cut into shards. Build always writes
	// "hilbert"; earlier builds could write "grid". Open does not read it:
	// a shard is a file and the items in it.
	Partition string      `json:"partition"`
	Loader    string      `json:"loader"`
	BlockSize int         `json:"block_size"`
	Items     int         `json:"items"`
	Shards    []ShardInfo `json:"shards"`
}

// ShardInfo is one shard's manifest entry.
type ShardInfo struct {
	File  string `json:"file"`
	Items int    `json:"items"`
}

// BuildOptions tunes Build.
type BuildOptions struct {
	// Shards is the shard count (default 4). It is clamped to the item
	// count so no shard is empty.
	Shards int
	// Loader bulk-loads each shard. The zero value is prtree.Hilbert
	// (the Loader enum's first member); prtool shard defaults to PR.
	Loader prtree.Loader
	// BlockSize passes through to prtree.Options.
	BlockSize int
	// Parallelism is the build's worker budget (clamped to GOMAXPROCS; 0
	// or 1 means serial). Shards come first: up to Parallelism of them
	// load at once, and each shard's bulk-load pipeline gets an equal
	// share of what is left (prtree.Options.Parallelism). The partition's
	// passes — keying, bucket counting and scattering, and the sorts of the
	// buckets its cuts fall in — run on the whole budget. The shard files
	// and the manifest are byte-identical at every setting. A shard in
	// flight gathers its items into a slice of its own and selects over a
	// 4-byte-a-record permutation of it, so an extra worker adds about 44
	// bytes a record of its shard.
	Parallelism int
}

// Build cuts items into runs of their centers' Hilbert order and
// bulk-loads one file-backed tree per run into dir (created if absent),
// then writes the manifest. Every item lands in exactly one shard, so
// scatter-gather query results over the set equal the same dataset in a
// single tree.
func Build(dir string, items []geom.Item, opt BuildOptions) (*Manifest, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("serve: cannot shard an empty dataset")
	}
	if opt.Shards <= 0 {
		opt.Shards = 4
	}
	if opt.Shards > len(items) {
		opt.Shards = len(items)
	}
	for i, it := range items {
		if !it.Rect.Valid() {
			return nil, fmt.Errorf("serve: item %d (id %d) has invalid rectangle %v", i, it.ID, it.Rect)
		}
	}
	parts := partitionHilbert(items, opt.Shards, opt.Parallelism)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	man := &Manifest{
		Version:   manifestVersion,
		Partition: "hilbert",
		Loader:    opt.Loader.String(),
		BlockSize: opt.BlockSize,
		Items:     len(items),
	}
	// One budget, shards first: what the concurrent shard builds leave
	// over is divided among their pipelines instead of multiplying it.
	budget := parallel.Bound(opt.Parallelism)
	workers := min(budget, len(parts))
	topts := &prtree.Options{BlockSize: opt.BlockSize, Parallelism: budget / workers}
	man.Shards = make([]ShardInfo, len(parts))
	for i, part := range parts {
		man.Shards[i] = ShardInfo{File: fmt.Sprintf("shard-%03d.pr", i), Items: len(part)}
	}
	path := func(i int) string { return filepath.Join(dir, man.Shards[i].File) }
	created := make([]bool, len(parts)) // Create succeeded: the files are this call's
	errs := make([]error, len(parts))
	parallel.Run(workers, len(parts), func(i int) {
		tree, err := prtree.Create(path(i), topts)
		if err != nil {
			errs[i] = err
			return
		}
		created[i] = true
		if err := tree.BulkLoad(opt.Loader, gather(items, parts[i])); err != nil {
			tree.Close() // the load's error is the one to report
			errs[i] = err
			return
		}
		errs[i] = tree.Close()
	})
	// Workers finish in any order; the error reported is the lowest
	// failing shard's, and a failed build leaves none of its files behind.
	for i, err := range errs {
		if err == nil {
			continue
		}
		for j, made := range created {
			if made {
				_ = storage.RemoveFiles(path(j)) // best effort: the shard's error is the one to report
			}
		}
		return nil, fmt.Errorf("serve: shard %d: %w", i, err)
	}
	if err := writeManifest(dir, man); err != nil {
		return nil, err
	}
	return man, nil
}

// writeManifest persists the manifest atomically and durably: it writes
// and fsyncs a temporary file, renames it over the manifest, then syncs
// the directory, so a crash leaves the old manifest or the new one.
func writeManifest(dir string, man *Manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encoding manifest: %w", err)
	}
	data = append(data, '\n')
	tmp := filepath.Join(dir, ManifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, ManifestName))
	}
	if err == nil {
		err = storage.SyncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("serve: writing manifest: %w", err)
	}
	return nil
}

// hilbertBits is the partition's grid resolution: 2^16 cells a side, so a
// center's key fits 32 bits.
const hilbertBits = 16

// bucketBits is how many of a key's top bits pick its bucket. The partition
// orders buckets by counting and sorts only the buckets a cut falls in: at
// 16 bits a bucket is a 256-by-256-cell square of the grid, and the
// benchmark's 216k rectangles average a few a bucket.
const bucketBits = 16

// minBlock is the fewest centers a block of the keying and scatter passes
// covers (unless there are fewer in all), so that a block's histogram is
// small beside its work.
const minBlock = 1 << 14

// partitionHilbert cuts the order of item centers by (Hilbert key, ID),
// items equal in both in input order, into n equal-count contiguous runs
// and returns the positions of each run's items. It sorts nothing whole: a
// counting pass over the top bucketBits of each key puts the positions in
// bucket order (bucket, then position), and only the buckets a cut falls
// strictly inside are ordered exactly. A run therefore holds exactly the
// items of its run of the full order, listed in bucket order — approximately
// Hilbert order. The keying and scatter passes run on up to workers
// goroutines over contiguous blocks of the input, and the result does not
// depend on how many there are. Callers guarantee 0 < n <= len(items).
func partitionHilbert(items []geom.Item, n, workers int) [][]uint32 {
	const shift = 32 - bucketBits
	q := hilbert.NewQuantizer2D(geom.ItemsMBR(items), hilbertBits)
	keys := make([]uint32, len(items))
	blocks := max(1, min(parallel.Bound(workers), len(items)/minBlock))
	block := func(b int) (lo, hi int) { return b * len(items) / blocks, (b + 1) * len(items) / blocks }
	// counts[b][k] is how many of block b's keys fall in bucket k, until the
	// prefix sum below turns it into where block b's first one goes.
	counts := make([][1 << bucketBits]uint32, blocks)
	parallel.Run(workers, blocks, func(b int) {
		c := &counts[b]
		lo, hi := block(b)
		for i := lo; i < hi; i++ {
			k := uint32(q.CenterKey(items[i].Rect))
			keys[i] = k
			c[k>>shift]++
		}
	})
	// Bucket-major, block-minor: within a bucket, positions ascend.
	var sum uint32
	for k := range 1 << bucketBits {
		for b := range counts {
			c := counts[b][k]
			counts[b][k] = sum
			sum += c
		}
	}
	// The runs' bounds, and the span of each bucket an inner bound falls
	// strictly inside (counts[0][k] is where bucket k starts).
	bounds := make([]int, n+1)
	per, extra := len(items)/n, len(items)%n // the first extra runs hold one more
	for i := range bounds {
		bounds[i] = i*per + min(i, extra)
	}
	start := func(k int) int {
		if k == 1<<bucketBits {
			return len(items)
		}
		return int(counts[0][k])
	}
	var spans [][2]int
	for _, c := range bounds[1:n] {
		k := sort.Search(1<<bucketBits, func(k int) bool { return start(k) > c }) - 1
		if start(k) == c {
			continue // the cut is a bucket boundary
		}
		if len(spans) == 0 || spans[len(spans)-1][0] != start(k) {
			spans = append(spans, [2]int{start(k), start(k + 1)})
		}
	}
	order := make([]uint32, len(items))
	parallel.Run(workers, blocks, func(b int) {
		next := &counts[b]
		lo, hi := block(b)
		for i := lo; i < hi; i++ {
			k := keys[i] >> shift
			order[next[k]] = uint32(i)
			next[k]++
		}
	})
	parallel.Run(workers, len(spans), func(s int) {
		slices.SortFunc(order[spans[s][0]:spans[s][1]], func(a, b uint32) int {
			return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(items[a].ID, items[b].ID), cmp.Compare(a, b))
		})
	})
	parts := make([][]uint32, n)
	for i := range parts {
		parts[i] = order[bounds[i]:bounds[i+1]]
	}
	return parts
}

// gather copies the items at positions pos, in that order.
func gather(items []geom.Item, pos []uint32) []geom.Item {
	out := make([]geom.Item, len(pos))
	for i, p := range pos {
		out[i] = items[p]
	}
	return out
}

// OpenOptions tunes Open.
type OpenOptions struct {
	// CachePages is the global page-cache budget shared by the whole set:
	// it is split evenly across the shards' pagers, so total cached pages
	// never exceed the budget regardless of shard count. A positive budget
	// must give every shard at least one page: Open rejects one below the
	// shard count. 0 or negative means unbounded (every page stays
	// resident).
	CachePages int

	// MaxRecoveries caps reopen attempts per quarantine before the shard
	// is declared permanently failed (default 5; negative retries
	// forever).
	MaxRecoveries int
	// RecoveryBackoff is the supervisor's initial retry delay (default
	// 100ms); each failed reopen doubles it, with jitter, up to
	// RecoveryMaxBackoff (default 10s).
	RecoveryBackoff    time.Duration
	RecoveryMaxBackoff time.Duration

	// wrapShard is the tests' fault-injection seam: when set, every
	// (re)open of shard idx routes its backend through this hook. attempt
	// is 0 for the initial Open and counts recovery reopens from 1.
	wrapShard func(idx, attempt int, b prtree.Backend) prtree.Backend
}

// normalized fills in recovery defaults.
func (o OpenOptions) normalized() OpenOptions {
	if o.MaxRecoveries == 0 {
		o.MaxRecoveries = 5
	}
	if o.RecoveryBackoff <= 0 {
		o.RecoveryBackoff = 100 * time.Millisecond
	}
	if o.RecoveryMaxBackoff <= 0 {
		o.RecoveryMaxBackoff = 10 * time.Second
	}
	return o
}

// ShardState is one shard's position in the rotation.
type ShardState int32

const (
	// ShardHealthy shards serve queries.
	ShardHealthy ShardState = iota
	// ShardQuarantined shards are out of rotation after a backend error
	// or checksum failure; a supervisor goroutine is trying to bring them
	// back (close → reopen → WAL replay → scrub).
	ShardQuarantined
	// ShardFailed shards exhausted MaxRecoveries reopen attempts and stay
	// out of rotation until the set is reopened.
	ShardFailed
)

func (s ShardState) String() string {
	switch s {
	case ShardHealthy:
		return "healthy"
	case ShardQuarantined:
		return "quarantined"
	case ShardFailed:
		return "failed"
	default:
		return fmt.Sprintf("ShardState(%d)", int32(s))
	}
}

// Health is the set's aggregate serving state, the /healthz answer.
type Health int

const (
	// HealthOK means every shard is in rotation.
	HealthOK Health = iota
	// HealthDegraded means queries still run but at least one shard is
	// out of rotation: results may be partial (and say so).
	HealthDegraded
	// HealthDown means no shard is in rotation; queries fail with
	// ErrUnavailable.
	HealthDown
)

func (h Health) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	case HealthDown:
		return "down"
	default:
		return fmt.Sprintf("Health(%d)", int(h))
	}
}

// ErrUnavailable reports a scatter-gather query with no healthy shard
// left to run on. The binary protocol maps it to CodeUnavailable.
var ErrUnavailable = errors.New("serve: no healthy shards")

// errShardDown marks a leg skipped because its shard is out of rotation.
var errShardDown = errors.New("serve: shard is out of rotation")

// shard is one tree plus its failure-isolation state. The tree pointer is
// guarded by mu (read-held for the duration of every query leg, so the
// supervisor can never swap a tree out from under a running traversal);
// the state word and counters are atomics so health checks and stats
// never contend with queries.
type shard struct {
	idx  int
	file string

	mu   sync.RWMutex
	tree *prtree.Tree // nil while out of rotation

	state       atomic.Int32 // ShardState
	errs        atomic.Uint64
	quarantines atomic.Uint64
	recoveries  atomic.Uint64
	attempts    atomic.Uint64

	lastErrMu sync.Mutex
	lastErr   string
}

func (sh *shard) setLastErr(err error) {
	sh.lastErrMu.Lock()
	sh.lastErr = err.Error()
	sh.lastErrMu.Unlock()
}

func (sh *shard) lastErrString() string {
	sh.lastErrMu.Lock()
	defer sh.lastErrMu.Unlock()
	return sh.lastErr
}

// Set is an open sharded index: N file-backed trees queried scatter-gather
// with results merged into a deterministic order. All read methods are
// safe for any number of concurrent callers.
//
// The set survives shard failures: a leg that hits a backend error or
// checksum panic quarantines its shard instead of failing the query, the
// response reports which shards are missing (Partial), and a background
// supervisor works to bring the shard back — see OpenOptions'
// MaxRecoveries/RecoveryBackoff knobs and the Health method.
type Set struct {
	dir      string
	manifest Manifest
	shards   []*shard
	items    int
	mbr      geom.Rect
	opt      OpenOptions
	perCache int // per-shard cache budget derived from CachePages

	done      chan struct{}
	superWG   sync.WaitGroup
	lifecycle sync.Mutex // guards closed + supervisor spawning vs Close
	closed    bool
}

// shardOptions builds the prtree.Options one shard (re)opens with.
func (s *Set) shardOptions(idx, attempt int) *prtree.Options {
	o := &prtree.Options{CacheCapacity: s.perCache}
	if hook := s.opt.wrapShard; hook != nil {
		o.WrapBackend = func(b prtree.Backend) prtree.Backend { return hook(idx, attempt, b) }
	}
	return o
}

// Open opens the sharded index directory dir. The manifest names the
// shard files; opt controls caching (one budget across all shards) and the
// failure-isolation knobs.
func Open(dir string, opt OpenOptions) (*Set, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("serve: reading manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("serve: parsing manifest: %w", err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("serve: manifest version %d (want %d)", man.Version, manifestVersion)
	}
	if len(man.Shards) == 0 {
		return nil, fmt.Errorf("serve: manifest lists no shards")
	}
	// A shard file is a file of dir, and each is one shard: a name that
	// reached outside dir would open another set's file, and a repeated one
	// would serve its items twice and another shard's never.
	files := make(map[string]bool, len(man.Shards))
	for _, si := range man.Shards {
		if !filepath.IsLocal(si.File) {
			return nil, fmt.Errorf("serve: manifest names shard file %q outside the set's directory", si.File)
		}
		name := filepath.Clean(si.File)
		if files[name] {
			return nil, fmt.Errorf("serve: manifest lists shard file %q twice", si.File)
		}
		files[name] = true
	}
	perShard := -1 // unbounded
	if opt.CachePages > 0 {
		if opt.CachePages < len(man.Shards) {
			return nil, fmt.Errorf("serve: cache budget %d pages is below one page for each of %d shards", opt.CachePages, len(man.Shards))
		}
		perShard = opt.CachePages / len(man.Shards)
	}
	s := &Set{
		dir: dir, manifest: man, mbr: geom.EmptyRect(),
		opt: opt.normalized(), perCache: perShard,
		done: make(chan struct{}),
	}
	for i, si := range man.Shards {
		sh := &shard{idx: i, file: si.File}
		tree, mbr, n, err := openShardTree(filepath.Join(dir, si.File), s.shardOptions(i, 0))
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("serve: opening shard %s: %w", si.File, err)
		}
		sh.tree = tree
		s.shards = append(s.shards, sh)
		if n != si.Items {
			s.Close()
			return nil, fmt.Errorf("serve: shard %s holds %d items, manifest says %d", si.File, n, si.Items)
		}
		s.items += n
		if n > 0 {
			s.mbr = s.mbr.Union(mbr)
		}
	}
	if s.items != man.Items {
		s.Close()
		return nil, fmt.Errorf("serve: shards hold %d items, manifest says %d", s.items, man.Items)
	}
	return s, nil
}

// openShardTree opens one shard file and touches its item count and MBR
// (the root page) under a recover, so a shard corrupt enough to panic on
// its very first read fails Open with an error instead of killing the
// process.
func openShardTree(path string, o *prtree.Options) (t *prtree.Tree, mbr geom.Rect, n int, err error) {
	defer func() {
		if p := recover(); p != nil {
			if t != nil {
				closeTree(t)
				t = nil
			}
			err = panicToError(-1, p)
		}
	}()
	t, err = prtree.Open(path, o)
	if err != nil {
		return nil, geom.EmptyRect(), 0, err
	}
	n = t.Len()
	if n > 0 {
		mbr = t.MBR()
	}
	return t, mbr, n, nil
}

// Close stops the recovery supervisors, waits them out, and closes every
// shard, reporting the first error. Idempotent.
func (s *Set) Close() error {
	s.lifecycle.Lock()
	if s.closed {
		s.lifecycle.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	s.lifecycle.Unlock()
	s.superWG.Wait()
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		t := sh.tree
		sh.tree = nil
		sh.mu.Unlock()
		if t == nil {
			continue
		}
		if err := closeTree(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// closeTree closes t, converting a panic out of Close (a quarantined
// backend can be arbitrarily broken) into an error.
func closeTree(t *prtree.Tree) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = panicToError(0, p)
		}
	}()
	return t.Close()
}

// Shards returns the shard count.
func (s *Set) Shards() int { return len(s.shards) }

// Health reports the set's aggregate serving state.
func (s *Set) Health() Health {
	healthy := 0
	for _, sh := range s.shards {
		if ShardState(sh.state.Load()) == ShardHealthy {
			healthy++
		}
	}
	switch {
	case healthy == len(s.shards):
		return HealthOK
	case healthy == 0:
		return HealthDown
	default:
		return HealthDegraded
	}
}

// Len returns the total item count across shards.
func (s *Set) Len() int { return s.items }

// MBR returns the bounding box of the whole set.
func (s *Set) MBR() geom.Rect { return s.mbr }

// Manifest returns the manifest the set was opened from.
func (s *Set) Manifest() Manifest { return s.manifest }

// Partial reports which shards contributed nothing to a scatter-gather
// result. The zero value means a complete result.
type Partial struct {
	// Failed holds the indices of missing shards in ascending order.
	Failed []uint32
}

// Degraded reports whether the result is missing at least one shard.
func (p Partial) Degraded() bool { return len(p.Failed) > 0 }

// panicToError converts a recovered query-leg panic — a checksum
// mismatch, an injected fault, any backend failure surfacing on the read
// path — into an error.
func panicToError(i int, p interface{}) error {
	if err, ok := p.(error); ok {
		return fmt.Errorf("serve: shard %d: %w", i, err)
	}
	return fmt.Errorf("serve: shard %d: panic: %v", i, p)
}

// leg runs fn against shard i if it is in rotation, converting read-path
// panics into errors. The shard lock is read-held for the whole leg so
// the recovery supervisor never swaps the tree under a live traversal.
func (s *Set) leg(i int, fn func(i int, t *prtree.Tree) error) (err error) {
	sh := s.shards[i]
	if ShardState(sh.state.Load()) != ShardHealthy {
		return errShardDown
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.tree == nil {
		return errShardDown
	}
	defer func() {
		if p := recover(); p != nil {
			err = panicToError(i, p)
		}
	}()
	return fn(i, sh.tree)
}

// scatter runs fn once per shard concurrently and returns the per-shard
// errors for resolve to classify.
func (s *Set) scatter(fn func(i int, t *prtree.Tree) error) []error {
	errs := make([]error, len(s.shards))
	if len(s.shards) == 1 {
		errs[0] = s.leg(0, fn)
		return errs
	}
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.leg(i, fn)
		}(i)
	}
	wg.Wait()
	return errs
}

// resolve classifies the per-shard leg errors of one query. Context
// errors — the client hung up or its deadline expired — propagate as the
// query's error and never count against a shard. Real backend failures
// quarantine the shard (kicking off its recovery supervisor) and degrade
// the response instead of failing it; only when every shard is out does
// the query fail, with ErrUnavailable.
func (s *Set) resolve(errs []error) (Partial, error) {
	var p Partial
	var ctxErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		p.Failed = append(p.Failed, uint32(i))
		if errors.Is(err, errShardDown) {
			continue // already out of rotation, nothing new to learn
		}
		s.quarantine(i, err)
	}
	if ctxErr != nil {
		return Partial{}, ctxErr
	}
	if len(p.Failed) == len(s.shards) && len(s.shards) > 0 {
		return Partial{}, fmt.Errorf("%w: all %d shards out of rotation", ErrUnavailable, len(s.shards))
	}
	return p, nil
}

// quarantine takes shard i out of rotation after a real failure and
// spawns its recovery supervisor. Only the first caller transitions the
// shard; concurrent legs that lost the race just add to the error count.
func (s *Set) quarantine(i int, cause error) {
	sh := s.shards[i]
	sh.errs.Add(1)
	sh.setLastErr(cause)
	if !sh.state.CompareAndSwap(int32(ShardHealthy), int32(ShardQuarantined)) {
		return
	}
	sh.quarantines.Add(1)
	s.lifecycle.Lock()
	if s.closed {
		s.lifecycle.Unlock()
		return
	}
	s.superWG.Add(1)
	s.lifecycle.Unlock()
	go s.supervise(sh)
}

// supervise is the per-quarantine recovery loop: close the broken tree,
// reopen it (replaying any WAL tail), scrub it, and put the shard back in
// rotation — retrying with capped exponential backoff plus jitter, and
// declaring the shard permanently failed after MaxRecoveries attempts.
func (s *Set) supervise(sh *shard) {
	defer s.superWG.Done()
	backoff := s.opt.RecoveryBackoff
	for attempt := 1; ; attempt++ {
		// Jittered sleep, aborted by Close. Jitter keeps a fleet of
		// supervisors (many shards failing at once) from thundering back.
		d := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		select {
		case <-s.done:
			return
		case <-time.After(d):
		}
		sh.attempts.Add(1)
		err := s.reopenShard(sh, attempt)
		if err == nil {
			sh.recoveries.Add(1)
			sh.state.Store(int32(ShardHealthy))
			return
		}
		sh.setLastErr(err)
		if s.opt.MaxRecoveries >= 0 && attempt >= s.opt.MaxRecoveries {
			sh.state.Store(int32(ShardFailed))
			return
		}
		backoff *= 2
		if backoff > s.opt.RecoveryMaxBackoff {
			backoff = s.opt.RecoveryMaxBackoff
		}
	}
}

// reopenShard swaps the shard's broken tree for a freshly opened one:
// close (best-effort — the old backend may be arbitrarily broken), reopen
// (prtree.Open replays the WAL), then scrub every page checksum and walk
// the structure before declaring it fit to serve. Write-held for the whole
// swap so no query leg observes a half-open tree.
func (s *Set) reopenShard(sh *shard, attempt int) (err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer func() {
		if p := recover(); p != nil {
			err = panicToError(sh.idx, p)
		}
	}()
	if old := sh.tree; old != nil {
		sh.tree = nil
		closeTree(old) // best-effort; the reopen below decides health
	}
	tree, err := prtree.Open(filepath.Join(s.dir, sh.file), s.shardOptions(sh.idx, attempt))
	if err != nil {
		return err
	}
	if err := tree.CheckPages(); err != nil {
		closeTree(tree)
		return err
	}
	if err := tree.Validate(); err != nil {
		closeTree(tree)
		return err
	}
	sh.tree = tree
	return nil
}

// sortItems puts gathered results into the set's deterministic order:
// ascending (ID, MinX, MinY, MaxX, MaxY).
func sortItems(items []geom.Item) {
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Rect.MinX != b.Rect.MinX {
			return a.Rect.MinX < b.Rect.MinX
		}
		if a.Rect.MinY != b.Rect.MinY {
			return a.Rect.MinY < b.Rect.MinY
		}
		if a.Rect.MaxX != b.Rect.MaxX {
			return a.Rect.MaxX < b.Rect.MaxX
		}
		return a.Rect.MaxY < b.Rect.MaxY
	})
}

// gather collects one query across every healthy shard and merges the
// results in deterministic order, applying limit after the merge. The
// returned Partial lists shards missing from the result.
func (s *Set) gather(ctx context.Context, build func() prtree.Query, limit int) ([]geom.Item, Partial, error) {
	perShard := make([][]geom.Item, len(s.shards))
	errs := s.scatter(func(i int, t *prtree.Tree) error {
		q := build().WithContext(ctx)
		if limit > 0 {
			// Each shard can satisfy at most the whole limit; the merge
			// trims the union deterministically below.
			q = q.WithLimit(limit)
		}
		out, err := t.Collect(q)
		perShard[i] = out
		return err
	})
	p, err := s.resolve(errs)
	if err != nil {
		return nil, Partial{}, err
	}
	for _, i := range p.Failed {
		perShard[i] = nil // a failed leg contributes nothing, even partially
	}
	n := 0
	for _, part := range perShard {
		n += len(part)
	}
	merged := make([]geom.Item, 0, n)
	for _, part := range perShard {
		merged = append(merged, part...)
	}
	sortItems(merged)
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	return merged, p, nil
}

// Window reports every item intersecting r, merged across shards into
// ascending ID order. limit <= 0 means unlimited; with a limit the first
// `limit` items of the merged order are returned.
func (s *Set) Window(ctx context.Context, r geom.Rect, limit int) ([]geom.Item, Partial, error) {
	return s.gather(ctx, func() prtree.Query { return prtree.Window(r) }, limit)
}

// Contained reports every item fully contained in r.
func (s *Set) Contained(ctx context.Context, r geom.Rect, limit int) ([]geom.Item, Partial, error) {
	return s.gather(ctx, func() prtree.Query { return prtree.Contained(r) }, limit)
}

// Nearest returns the k items closest to (x, y) across all healthy
// shards, in ascending (distance, ID) order — exactly the single-tree
// result when the set is whole: each shard reports its local top k and
// the merge keeps the global top k under the tree's own deterministic
// tie-breaking.
func (s *Set) Nearest(ctx context.Context, x, y float64, k int) ([]Neighbor, Partial, error) {
	if k <= 0 {
		return nil, Partial{}, nil
	}
	perShard := make([][]Neighbor, len(s.shards))
	errs := s.scatter(func(i int, t *prtree.Tree) error {
		out, err := t.CollectNearest(prtree.Nearest(x, y, k).WithContext(ctx))
		perShard[i] = out
		return err
	})
	p, err := s.resolve(errs)
	if err != nil {
		return nil, Partial{}, err
	}
	for _, i := range p.Failed {
		perShard[i] = nil
	}
	var merged []Neighbor
	for _, part := range perShard {
		merged = append(merged, part...)
	}
	return rtree.Closest(merged, k), p, nil
}

// ShardStatus is one shard's health record in SetStats.
type ShardStatus struct {
	File        string
	State       ShardState
	Errors      uint64 // query legs that failed against this shard
	Quarantines uint64 // healthy → quarantined transitions
	Recoveries  uint64 // quarantined → healthy transitions
	Attempts    uint64 // reopen attempts by the supervisor
	LastErr     string
	Snapshot    prtree.SnapshotStats // storage epoch state (epoch-pinned page reclamation)
}

// SetStats aggregates the set's I/O, cache and health counters.
type SetStats struct {
	Shards  int
	Healthy int
	Items   int
	IO      prtree.IOStats
	Cache   prtree.CacheStats
	Status  []ShardStatus
}

// Stats sums the per-shard backend and pager counters and snapshots each
// shard's health record. The cache capacity reported is the summed
// per-shard budget of the shards currently in rotation.
func (s *Set) Stats() SetStats {
	st := SetStats{Shards: len(s.shards), Items: s.items}
	first := true
	for _, sh := range s.shards {
		status := ShardStatus{
			File:        sh.file,
			State:       ShardState(sh.state.Load()),
			Errors:      sh.errs.Load(),
			Quarantines: sh.quarantines.Load(),
			Recoveries:  sh.recoveries.Load(),
			Attempts:    sh.attempts.Load(),
			LastErr:     sh.lastErrString(),
		}
		if status.State == ShardHealthy {
			st.Healthy++
		}
		sh.mu.RLock()
		t := sh.tree
		if t == nil {
			sh.mu.RUnlock()
			st.Status = append(st.Status, status)
			continue
		}
		status.Snapshot = t.SnapshotStats()
		st.Status = append(st.Status, status)
		io := t.IOStats()
		st.IO.Reads += io.Reads
		st.IO.Writes += io.Writes
		cs := t.CacheStats()
		sh.mu.RUnlock()
		st.Cache.Hits += cs.Hits
		st.Cache.Misses += cs.Misses
		st.Cache.Evictions += cs.Evictions
		st.Cache.Resident += cs.Resident
		if first {
			st.Cache.Capacity = cs.Capacity
			first = false
		} else if cs.Capacity > 0 && st.Cache.Capacity > 0 {
			st.Cache.Capacity += cs.Capacity
		}
	}
	return st
}
