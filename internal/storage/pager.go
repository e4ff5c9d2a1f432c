package storage

import (
	"sync"
	"sync/atomic"
)

// Pager mediates page reads through a page cache with a pin set. It models
// the paper's query-time buffer: all internal R-tree nodes are pinned so
// the reported query cost is the number of leaf blocks fetched.
//
// The cache is read-only: writers go directly to the backend. Writing
// through the pager drops the cached entry, so the next read is a miss.
//
// The cache holds what the backend's ReadNoCopy lends, one counted block
// read per miss: a Disk's own page slice, a page file's mapped view on
// Linux, a verified private copy where a page file has no view. So a miss
// on a Disk or a mapped page file copies and allocates nothing, and an
// in-memory tree's cache holds no second copy of its pages. Capacity,
// eviction order and every counter are the same whatever the backend
// lends, so the paper's numbers do not depend on the platform.
//
// The pager caches bytes only: readers parse pages in place (rtree's
// zero-copy node views), so there is no decoded form to keep coherent.
//
// # Concurrency
//
// A Pager is safe for use by many concurrent readers (Read, Pin,
// CacheStats, CachedPages): the cache is lock-striped across power-of-two
// shards keyed by page id, and the hit/miss counters are atomic. Every
// capacity takes the same read path. In a shard without an LRU (unbounded
// or capacity 0) a hit takes only the shard's read lock. A capacity-0 miss
// publishes nothing, so it fetches with no lock held. Every other miss
// takes the shard's write lock, probes again, and fetches and publishes
// the page under it; a second reader of the same page waits on that lock
// and then counts a hit. So concurrent first touches of a page are one
// miss and one block read, and both the hit/miss tallies and the disk's
// block-read counter are what a serial execution of the same accesses
// would produce — which keeps the aggregate block I/O of concurrent
// queries bit-identical to serial runs. The price: while a miss fills,
// hits on its shard wait. A fill is one ReadNoCopy: a slice lookup, a
// mapped view (plus its first-view checksum) or one pread; an unbounded
// cache pays it once per page.
//
// Writers (Write, Invalidate, DropCache) are individually safe to
// call, but mutating the underlying pages while queries read them is a
// higher-level contract violation: a built rtree.Tree is read-only, and a
// page is written only before any reader can reach it.
//
// Unbounded (capacity < 0, the production default) and capacity-0 pagers
// never evict, so striping cannot change which accesses hit. A bounded
// pager (capacity > 0) evicts in exact global least-recently-used order,
// so it is one shard with its LRU: every read takes its write lock. Bounded
// caches model the paper's buffer for cache-pressure work.
type Pager struct {
	dev      Backend
	capacity int // max unpinned cached pages; <0 means unbounded, 0 caches none
	shards   []pagerShard
	mask     uint32

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// pagerShardCount is the stripe width for unbounded and capacity-0 pagers.
// It must be a power of two (the shard index is id & mask).
const pagerShardCount = 16

type pagerShard struct {
	mu sync.RWMutex
	// lru heads a bounded shard's ring of entries, the most recently used
	// at lru.next, the least at lru.prev; nil in unbounded and capacity-0
	// pagers.
	lru     *cacheEntry
	entries map[PageID]*cacheEntry
	pinned  map[PageID][]byte
}

// cacheEntry is one unpinned cached page, published only once its bytes
// are filled. In a bounded shard it is a link of the LRU ring, and a miss
// that evicts reuses the evicted entry, so it allocates nothing.
type cacheEntry struct {
	id         PageID
	data       []byte
	prev, next *cacheEntry // bounded shards only
}

// ring returns the head of an empty LRU ring.
func ring() *cacheEntry {
	e := new(cacheEntry)
	e.prev, e.next = e, e
	return e
}

func (e *cacheEntry) unlink() { e.prev.next, e.next.prev = e.next, e.prev }

// linkAfter puts e into the ring just after at.
func (e *cacheEntry) linkAfter(at *cacheEntry) {
	e.prev, e.next = at, at.next
	at.next.prev, at.next = e, e
}

// NewPager returns a pager over a backend whose cache holds at most
// capacity unpinned pages, evicting the least recently used. capacity 0
// caches no unpinned page; a negative capacity means "unbounded".
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
	for i := range p.shards {
		s := &p.shards[i]
		if capacity > 0 {
			s.lru = ring()
		}
		s.entries = make(map[PageID]*cacheEntry)
		s.pinned = make(map[PageID][]byte)
	}
	return p
}

func (p *Pager) shard(id PageID) *pagerShard { return &p.shards[uint32(id)&p.mask] }

// Backend returns the underlying device.
func (p *Pager) Backend() Backend { return p.dev }

// Read returns the contents of page id, fetching from disk (and counting
// one block read) only on a cache miss. The returned slice is shared with
// the cache and must be treated as read-only.
func (p *Pager) Read(id PageID) []byte {
	s := p.shard(id)
	if s.lru == nil {
		// Without an LRU a hit changes nothing, so it needs only the read
		// lock.
		s.mu.RLock()
		data, ok := s.lookup(id)
		s.mu.RUnlock()
		if ok {
			p.hits.Add(1)
			return data
		}
		if p.capacity == 0 {
			// Caching disabled: nothing is published, so the fetch needs
			// no lock, and every unpinned access is a miss, as serially.
			p.misses.Add(1)
			return p.dev.ReadNoCopy(id)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Probe again: another reader may have filled or pinned the page since.
	if data, ok := s.lookup(id); ok {
		p.hits.Add(1)
		return data
	}
	p.misses.Add(1)
	data := p.dev.ReadNoCopy(id)
	var ce *cacheEntry
	if s.lru != nil && len(s.entries) >= p.capacity {
		// Full: the least recently used entry is evicted and carries the
		// new page.
		ce = s.lru.prev
		ce.unlink()
		delete(s.entries, ce.id)
		p.evictions.Add(1)
	} else {
		ce = new(cacheEntry)
	}
	ce.id, ce.data = id, data
	s.entries[id] = ce
	if s.lru != nil {
		ce.linkAfter(s.lru)
	}
	return data
}

// lookup finds page id among the shard's pins and cached entries, moving an
// entry of a bounded shard to the front of its LRU. The caller holds the
// shard's lock: the write lock when the shard has an LRU.
func (s *pagerShard) lookup(id PageID) ([]byte, bool) {
	if data, ok := s.pinned[id]; ok {
		return data, true
	}
	ce, ok := s.entries[id]
	if !ok {
		return nil, false
	}
	if s.lru != nil {
		ce.unlink()
		ce.linkAfter(s.lru)
	}
	return ce.data, true
}

// Pin loads page id (counting a read if absent from the cache) and keeps it
// resident until Invalidate or DropCache releases it. Pinned pages never
// count as query I/O after the pin. rtree's PinInternal pins a tree's
// internal nodes this way, and a node's pin goes when the node is freed.
func (p *Pager) Pin(id PageID) {
	s := p.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pinned[id]; ok {
		return
	}
	if ce, ok := s.entries[id]; ok {
		s.remove(ce)
		s.pinned[id] = ce.data
	} else {
		s.pinned[id] = p.dev.ReadNoCopy(id)
	}
}

// Write stores data to page id on disk and drops any cached entry, so the
// next read fetches the new bytes: what ReadNoCopy lent before may be a
// private copy, or a view of the page's previous life that a reader
// published after the free, while a fresh page waits in a page file's
// write run, unseen by any view until a read flushes it. A pinned page
// stays pinned: its bytes are taken again with ReadNoCopy, a counted read.
// No tree rewrites a live page — copy-on-write writes fresh pages, and
// rtree frees a node only after invalidating it — so neither costs a
// query a read.
func (p *Pager) Write(id PageID, data []byte) {
	s := p.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	p.dev.Write(id, data)
	if _, ok := s.pinned[id]; ok {
		s.pinned[id] = p.dev.ReadNoCopy(id)
		return
	}
	if ce, ok := s.entries[id]; ok {
		s.remove(ce)
	}
}

// Invalidate drops any cached copy of page id without touching the disk.
func (p *Pager) Invalidate(id PageID) {
	s := p.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pinned, id)
	if ce, ok := s.entries[id]; ok {
		s.remove(ce)
	}
}

// remove drops a cache entry for a reason other than eviction (promotion to
// the pin set, invalidation); the caller holds the shard's lock.
func (s *pagerShard) remove(ce *cacheEntry) {
	delete(s.entries, ce.id)
	if s.lru != nil {
		ce.unlink()
	}
}

// DropCache empties the cache and the pin set.
func (p *Pager) DropCache() {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		if s.lru != nil {
			s.lru = ring()
		}
		s.entries = make(map[PageID]*cacheEntry)
		s.pinned = make(map[PageID][]byte)
		s.mu.Unlock()
	}
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
