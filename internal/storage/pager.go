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
// CacheStats, CachedPages): one lock guards one map of entries, pinned and
// cached alike, and the hit/miss counters are atomic. Without an LRU
// (unbounded or capacity 0) a hit takes only the read lock, and a
// capacity-0 miss, which publishes nothing, fetches with no lock held.
// Every other read takes the write lock; a miss probes again, then fetches
// and publishes the page under it, so a second reader of the same page
// waits and then counts a hit. So concurrent first touches of a page are
// one miss and one block read, and the hit/miss tallies and the disk's
// block-read counter are what a serial execution of the same accesses
// would produce: the aggregate block I/O of concurrent queries is
// bit-identical to serial runs. The price: while a miss fills, hits wait.
// A fill is one ReadNoCopy: a slice lookup, a mapped view (plus its
// first-view checksum) or one pread; an unbounded cache pays it once per
// page.
//
// Writers (Write, Invalidate, DropCache) are individually safe to call,
// but mutating the underlying pages while queries read them is a
// higher-level contract violation: a built rtree.Tree is read-only, and a
// page is written only before any reader can reach it. So Write stores
// its bytes with no lock held, and takes the write lock only to drop or
// refresh the page's entry: a carry's page writes do not stall readers.
//
// A bounded pager (capacity > 0) evicts unpinned entries in exact
// least-recently-used order. Bounded caches model the paper's buffer for
// cache-pressure work.
type Pager struct {
	dev      Backend
	capacity int // max unpinned cached pages; <0 means unbounded, 0 caches none

	mu sync.RWMutex
	// lru heads a bounded pager's ring of unpinned entries, the most
	// recently used at lru.next, the least at lru.prev; nil in unbounded
	// and capacity-0 pagers.
	lru      *cacheEntry
	entries  map[PageID]*cacheEntry
	unpinned int // entries not pinned: what capacity bounds

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// cacheEntry is one resident page, published only once its bytes are
// filled. An unpinned entry of a bounded pager is a link of the LRU ring,
// and a miss that evicts reuses the evicted entry, so it allocates nothing.
type cacheEntry struct {
	id         PageID
	data       []byte
	pinned     bool
	prev, next *cacheEntry // unpinned entries of bounded pagers only
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
	p := &Pager{dev: dev, capacity: capacity, entries: make(map[PageID]*cacheEntry)}
	if capacity > 0 {
		p.lru = new(cacheEntry)
		p.lru.prev, p.lru.next = p.lru, p.lru // an empty ring
	}
	return p
}

// Backend returns the underlying device.
func (p *Pager) Backend() Backend { return p.dev }

// Read returns the contents of page id, fetching from disk (and counting
// one block read) only on a cache miss. The returned slice is shared with
// the cache and must be treated as read-only.
func (p *Pager) Read(id PageID) []byte {
	if p.lru == nil {
		// Without an LRU a hit changes nothing, so it needs only the read
		// lock.
		p.mu.RLock()
		data, ok := p.lookup(id)
		p.mu.RUnlock()
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
	p.mu.Lock()
	defer p.mu.Unlock()
	// Probe again: another reader may have filled or pinned the page since.
	if data, ok := p.lookup(id); ok {
		p.hits.Add(1)
		return data
	}
	p.misses.Add(1)
	data := p.dev.ReadNoCopy(id)
	var ce *cacheEntry
	if p.lru != nil && p.unpinned >= p.capacity {
		// Full: the least recently used entry is evicted and carries the
		// new page.
		ce = p.lru.prev
		ce.unlink()
		delete(p.entries, ce.id)
		p.evictions.Add(1)
	} else {
		ce = new(cacheEntry)
		p.unpinned++
	}
	ce.id, ce.data = id, data
	p.entries[id] = ce
	if p.lru != nil {
		ce.linkAfter(p.lru)
	}
	return data
}

// lookup finds page id's entry, moving an unpinned entry of a bounded pager
// to the front of its LRU. The caller holds the lock: the write lock when
// the pager has an LRU.
func (p *Pager) lookup(id PageID) ([]byte, bool) {
	ce, ok := p.entries[id]
	if !ok {
		return nil, false
	}
	if p.lru != nil && !ce.pinned {
		ce.unlink()
		ce.linkAfter(p.lru)
	}
	return ce.data, true
}

// Pin loads page id (counting a read if absent from the cache) and keeps it
// resident until Invalidate or DropCache releases it. Pinned pages never
// count as query I/O after the pin. rtree's PinInternal pins a tree's
// internal nodes this way, and a node's pin goes when the node is freed.
func (p *Pager) Pin(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ce, ok := p.entries[id]
	if !ok {
		p.entries[id] = &cacheEntry{id: id, data: p.dev.ReadNoCopy(id), pinned: true}
	} else if !ce.pinned {
		p.unlist(ce)
		ce.pinned = true
	}
}

// Write stores pages[i] to page id+i on disk (see Backend.Write) and drops
// any cached entry of each, so the next read fetches the new bytes: what
// ReadNoCopy lent before may be a private copy, or a view of the page's
// previous life that a reader published after the free. A pinned page
// stays pinned: its bytes are taken again with ReadNoCopy, a counted read.
// No tree rewrites a live page — copy-on-write writes fresh pages, and
// rtree frees a node only after invalidating it — so neither costs a
// query a read.
func (p *Pager) Write(id PageID, pages ...[]byte) {
	p.dev.Write(id, pages...)
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range pages {
		if ce, ok := p.entries[id+PageID(i)]; ok && ce.pinned {
			ce.data = p.dev.ReadNoCopy(ce.id)
		} else if ok {
			p.remove(ce)
		}
	}
}

// Invalidate drops any cached copy of page id without touching the disk.
func (p *Pager) Invalidate(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ce, ok := p.entries[id]; ok {
		p.remove(ce)
	}
}

// remove drops an entry for a reason other than eviction; the caller holds
// the write lock.
func (p *Pager) remove(ce *cacheEntry) {
	delete(p.entries, ce.id)
	if !ce.pinned {
		p.unlist(ce)
	}
}

// unlist takes an unpinned entry out of the LRU and out of the count that
// capacity bounds; the caller holds the write lock.
func (p *Pager) unlist(ce *cacheEntry) {
	p.unpinned--
	if p.lru != nil {
		ce.unlink()
	}
}

// DropCache empties the cache and the pin set.
func (p *Pager) DropCache() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lru != nil {
		p.lru.prev, p.lru.next = p.lru, p.lru
	}
	p.entries = make(map[PageID]*cacheEntry)
	p.unpinned = 0
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
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.entries)
}
