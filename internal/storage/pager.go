package storage

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Pager mediates page reads through a page cache with a pin set. It models
// the paper's query-time buffer: all internal R-tree nodes are pinned so
// the reported query cost is the number of leaf blocks fetched.
//
// The cache is read-only: writers go directly to the backend. Writing
// through the pager refreshes the cached copy.
//
// What the cache holds depends on the backend. A backend that maps its own
// storage (StableReader: the page file on Linux) lends the pager views of
// its pages, so a miss is a counted block read that copies, allocates and
// syscalls nothing; every other backend fills a private BlockSize buffer
// through Read. Capacity, eviction order and every counter are the same on
// both paths — a view taken is one miss and one block read, exactly like a
// buffer filled — so the paper's numbers do not depend on the platform.
//
// The pager caches bytes only: readers parse pages in place (rtree's
// zero-copy node views), so there is no decoded form to keep coherent.
//
// # Concurrency
//
// A Pager is safe for use by many concurrent readers (Read, Pin lookups,
// HitRate, CachedPages): the cache is lock-striped across power-of-two
// shards keyed by page id, and the hit/miss counters are atomic. A cache
// miss uses a single-flight protocol — the first goroutine to miss a page
// installs an in-flight entry, releases the shard lock, performs the one
// disk read and publishes the bytes; concurrent readers of the same page
// count a hit and wait for the fill. Consequently both the
// hit/miss tallies and the disk's block-read counter are exactly what a
// serial execution of the same page accesses would produce, which is what
// keeps the aggregate block-I/O of concurrent queries bit-identical to
// serial runs.
//
// Writers (Write, Invalidate, Unpin, DropCache) are individually safe to
// call, but mutating the underlying pages while queries read them is a
// higher-level contract violation: a built rtree.Tree is read-only, and a
// page is written only before any reader can reach it.
//
// Two cache regimes exist. Unbounded (capacity < 0, the production default)
// and disabled (capacity 0) pagers never evict, so striping cannot change
// which accesses hit: serial accounting is bit-identical to the previous
// global-LRU implementation, and Figures 9-12 are unaffected. A bounded
// pager (capacity > 0) evicts in exact global least-recently-used order, so
// it runs as a single shard under one lock — still safe under concurrency,
// but serialized; bounded caches model the paper's buffer for cache-pressure
// work, not the unbounded throughput path.
type Pager struct {
	dev      Backend
	capacity int // max unpinned cached pages; <0 means unbounded, 0 disables
	shards   []pagerShard
	mask     uint32

	stable StableReader // non-nil when dev offers zero-copy stable views

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// pagerShardCount is the stripe width for unbounded and capacity-0 pagers.
// It must be a power of two (the shard index is id & mask).
const pagerShardCount = 16

type pagerShard struct {
	mu sync.RWMutex
	// lru orders the entries of a bounded shard, most recently used at the
	// front; nil in unbounded and disabled pagers.
	lru     *list.List
	entries map[PageID]*cacheEntry
	pinned  map[PageID][]byte
	// stablePins marks pinned pages whose bytes are zero-copy stable views:
	// read-only, so Write replaces them instead of writing through.
	stablePins map[PageID]struct{}
}

// cacheEntry is one unpinned cached page. In bounded pagers data is always
// filled under the shard lock and elem is the entry's place in the shard's
// LRU list. In unbounded pagers an entry may be in flight: ready is closed
// once data is published, and readers that found the entry wait on it
// off-lock.
type cacheEntry struct {
	id     PageID
	data   []byte
	stable bool          // data is a zero-copy stable view: read-only, Write replaces it
	ready  chan struct{} // nil in bounded shards (filled synchronously)
	elem   *list.Element // bounded shards only
}

// NewPager returns a pager over a backend whose cache holds at most
// capacity unpinned pages, evicting the least recently used. capacity 0
// disables unpinned caching entirely; a negative capacity means
// "unbounded".
func NewPager(dev Backend, capacity int) *Pager {
	nshards := pagerShardCount
	if capacity > 0 {
		// A bounded cache keeps an exact global eviction order, which a
		// striped cache cannot provide; it runs as a single shard.
		nshards = 1
	}
	p := &Pager{
		dev:      dev,
		capacity: capacity,
		shards:   make([]pagerShard, nshards),
		mask:     uint32(nshards - 1),
	}
	if sr, ok := dev.(StableReader); ok {
		p.stable = sr
	}
	for i := range p.shards {
		s := &p.shards[i]
		if capacity > 0 {
			s.lru = list.New()
		}
		s.entries = make(map[PageID]*cacheEntry)
		s.pinned = make(map[PageID][]byte)
		s.stablePins = make(map[PageID]struct{})
	}
	return p
}

func (p *Pager) shard(id PageID) *pagerShard { return &p.shards[uint32(id)&p.mask] }

// Backend returns the underlying device.
func (p *Pager) Backend() Backend { return p.dev }

// fetchDemand obtains page id's bytes for a counted demand miss: a
// zero-copy stable view when the backend lends one, an allocated buffer
// filled by one Read otherwise.
func (p *Pager) fetchDemand(id PageID) (data []byte, stable bool) {
	if p.stable != nil {
		if d, ok := p.stable.ReadStable(id); ok {
			return d, true
		}
	}
	d := make([]byte, p.dev.BlockSize())
	p.dev.Read(id, d)
	return d, false
}

// Read returns the contents of page id, fetching from disk (and counting
// one block read) only on a cache miss. The returned slice is shared with
// the cache and must be treated as read-only.
func (p *Pager) Read(id PageID) []byte {
	if p.capacity > 0 {
		return p.readBounded(id)
	}
	return p.readStriped(id)
}

// readBounded is the single-shard exact-order read path of bounded pagers.
func (p *Pager) readBounded(id PageID) []byte {
	s := &p.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	if data, ok := s.pinned[id]; ok {
		p.hits.Add(1)
		return data
	}
	if ce, ok := s.entries[id]; ok {
		p.hits.Add(1)
		s.lru.MoveToFront(ce.elem)
		return ce.data
	}
	p.misses.Add(1)
	data, stable := p.fetchDemand(id)
	ce := &cacheEntry{id: id, data: data, stable: stable}
	ce.elem = s.lru.PushFront(ce)
	s.entries[id] = ce
	p.evictLocked(s)
	return data
}

// readStriped is the lock-striped read path of unbounded and capacity-0
// pagers. Hits take only a shard read-lock; misses single-flight the fill.
func (p *Pager) readStriped(id PageID) []byte {
	s := p.shard(id)
	for {
		s.mu.RLock()
		if data, ok := s.pinned[id]; ok {
			s.mu.RUnlock()
			p.hits.Add(1)
			return data
		}
		if ce, ok := s.entries[id]; ok {
			s.mu.RUnlock()
			p.hits.Add(1)
			if data := ce.wait(); data != nil {
				return data
			}
			// The fill failed (the filler panicked); its entry is gone.
			// Retry so this goroutine reads the page itself and surfaces
			// the same error.
			continue
		}
		s.mu.RUnlock()
		break
	}
	if p.capacity == 0 {
		// Caching disabled: every unpinned access is a miss, exactly as it
		// would be serially.
		p.misses.Add(1)
		data, _ := p.fetchDemand(id)
		return data
	}
	for {
		s.mu.Lock()
		// Re-check under the write lock: another goroutine may have pinned,
		// filled or begun filling the page since the read-locked probe.
		if data, ok := s.pinned[id]; ok {
			s.mu.Unlock()
			p.hits.Add(1)
			return data
		}
		if ce, ok := s.entries[id]; ok {
			s.mu.Unlock()
			p.hits.Add(1)
			if data := ce.wait(); data != nil {
				return data
			}
			continue
		}
		ce := &cacheEntry{id: id, ready: make(chan struct{})}
		s.entries[id] = ce
		s.mu.Unlock()
		p.misses.Add(1)
		return p.fill(s, ce)
	}
}

// fill performs the single demand fetch of a missed page off-lock — exactly
// one per distinct missed page, with other shards readable meanwhile — and
// publishes the bytes under the shard lock so lock-holding readers (Pin,
// Write) observe them safely. If the fetch panics (e.g. an out-of-range
// page id), the in-flight entry is removed and waiters are released to
// retry and surface the same panic, instead of blocking forever.
func (p *Pager) fill(s *pagerShard, ce *cacheEntry) []byte {
	defer func() {
		if ce.data == nil { // fetch panicked; unblock waiters
			s.mu.Lock()
			if s.entries[ce.id] == ce {
				delete(s.entries, ce.id)
			}
			s.mu.Unlock()
		}
		close(ce.ready)
	}()
	data, stable := p.fetchDemand(ce.id)
	s.mu.Lock()
	ce.data = data
	ce.stable = stable
	s.mu.Unlock()
	return data
}

// wait blocks until the entry's fill completes and returns the bytes, or
// nil if the fill failed and the caller should retry.
func (ce *cacheEntry) wait() []byte {
	if ce.ready != nil {
		<-ce.ready
	}
	return ce.data
}

// Pin loads page id (counting a read if absent from the cache) and keeps it
// resident until Unpin. Pinned pages never count as query I/O after the pin.
func (p *Pager) Pin(id PageID) {
	s := p.shard(id)
	for {
		s.mu.Lock()
		if _, ok := s.pinned[id]; ok {
			s.mu.Unlock()
			return
		}
		if ce, ok := s.entries[id]; ok {
			if ce.data != nil {
				s.remove(ce)
				s.pinned[id] = ce.data
				if ce.stable {
					s.stablePins[id] = struct{}{}
				}
				s.mu.Unlock()
				return
			}
			// A concurrent reader is filling this page; wait for its
			// single disk read rather than issuing a duplicate one, then
			// re-examine.
			s.mu.Unlock()
			ce.wait()
			continue
		}
		if p.capacity > 0 {
			// Bounded single-shard mode: load under the lock, exactly as
			// the pre-striping pager did (in-flight entries must never be
			// visible to readBounded, which assumes filled entries).
			data, stable := p.fetchDemand(id)
			s.pinned[id] = data
			if stable {
				s.stablePins[id] = struct{}{}
			}
			s.mu.Unlock()
			return
		}
		// Striped mode: become the single-flight filler, so a Read racing
		// this Pin neither duplicates the disk read nor leaves an orphaned
		// cache entry behind; the next loop iteration promotes the filled
		// entry to the pin set.
		ce := &cacheEntry{id: id, ready: make(chan struct{})}
		s.entries[id] = ce
		s.mu.Unlock()
		p.fill(s, ce)
	}
}

// Unpin releases a pinned page. The page leaves the cache entirely (it is
// not demoted to the LRU). It is a no-op for unpinned pages.
func (p *Pager) Unpin(id PageID) {
	s := p.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pinned[id]; !ok {
		return
	}
	delete(s.pinned, id)
	delete(s.stablePins, id)
}

// Write stores data to page id on disk and refreshes any cached copy. A
// stable (mapped) view needs no refresh: the write reaches the storage at
// once, in a transaction or out of one, and the view shows it.
func (p *Pager) Write(id PageID, data []byte) {
	s := p.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	p.dev.Write(id, data)
	if pd, ok := s.pinned[id]; ok {
		if _, stable := s.stablePins[id]; !stable {
			refreshCopy(pd, data)
		}
		return
	}
	if ce, ok := s.entries[id]; ok && ce.data != nil && !ce.stable {
		refreshCopy(ce.data, data)
	}
}

// refreshCopy overwrites dst with data, zero-filling the tail beyond it so
// the cached copy matches the disk page exactly.
func refreshCopy(dst, data []byte) {
	copy(dst, data)
	for i := len(data); i < len(dst); i++ {
		dst[i] = 0
	}
}

// Invalidate drops any cached copy of page id without touching the disk.
func (p *Pager) Invalidate(id PageID) {
	s := p.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pinned, id)
	delete(s.stablePins, id)
	if ce, ok := s.entries[id]; ok {
		s.remove(ce)
	}
}

// remove drops a cache entry for a reason other than eviction (promotion to
// the pin set, invalidation); the caller holds the shard's lock.
func (s *pagerShard) remove(ce *cacheEntry) {
	delete(s.entries, ce.id)
	if s.lru != nil {
		s.lru.Remove(ce.elem)
	}
}

// DropCache empties the cache and the pin set.
func (p *Pager) DropCache() {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		if s.lru != nil {
			s.lru.Init()
		}
		s.entries = make(map[PageID]*cacheEntry)
		s.pinned = make(map[PageID][]byte)
		s.stablePins = make(map[PageID]struct{})
		s.mu.Unlock()
	}
}

// HitRate returns cache hits and misses since construction. It is safe to
// call while queries run; the two counters are loaded independently.
func (p *Pager) HitRate() (hits, misses uint64) {
	return p.hits.Load(), p.misses.Load()
}

// CacheStats is the pager's cumulative cache-behavior snapshot.
type CacheStats struct {
	Hits      uint64 // reads served from the cache or pin set
	Misses    uint64 // reads that had to fetch
	Evictions uint64 // entries evicted from a bounded cache

	// PrefetchIssued and PrefetchUsed read 0: the speculative read tier
	// they counted is gone. The fields stay because the benchmark harness
	// reports them.
	PrefetchIssued uint64
	PrefetchUsed   uint64

	Resident int // currently resident pages (pinned + cached)
	Capacity int // configured capacity (<0 unbounded, 0 disabled)
}

// HitRatio returns hits / (hits + misses), or 0 with no traffic.
func (cs CacheStats) HitRatio() float64 {
	total := cs.Hits + cs.Misses
	if total == 0 {
		return 0
	}
	return float64(cs.Hits) / float64(total)
}

// CacheStats returns the pager's counters; safe during concurrent reads.
func (p *Pager) CacheStats() CacheStats {
	return CacheStats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
		Resident:  p.CachedPages(),
		Capacity:  p.capacity,
	}
}

// CachedPages returns the number of resident pages (pinned + cached).
func (p *Pager) CachedPages() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.RLock()
		n += len(s.pinned) + len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

// evictLocked trims the bounded shard to capacity, least recently used
// first; the caller holds its lock.
func (p *Pager) evictLocked(s *pagerShard) {
	for s.lru.Len() > p.capacity {
		ce := s.lru.Remove(s.lru.Back()).(*cacheEntry)
		delete(s.entries, ce.id)
		p.evictions.Add(1)
	}
}
