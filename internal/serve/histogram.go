package serve

import (
	"sync/atomic"
	"time"
)

// histBuckets is the latency histogram's bucket count. Bucket i covers
// [histBase * histGrowth^(i-1), histBase * histGrowth^i); the first bucket
// absorbs everything below histBase and the last everything above the top
// boundary, so Observe never misses.
const histBuckets = 48

const histBase = time.Microsecond

// histGrowth is the geometric bucket growth. 1.5^46 µs ≈ 124 s, so the
// histogram spans sub-microsecond to minutes with ~±25% resolution —
// plenty for p50/p95/p99 on a /statsz page.
const histGrowth = 1.5

// histBounds holds each bucket's upper boundary, precomputed once.
var histBounds = func() [histBuckets]time.Duration {
	var out [histBuckets]time.Duration
	b := float64(histBase)
	for i := 0; i < histBuckets; i++ {
		out[i] = time.Duration(b)
		b *= histGrowth
	}
	out[histBuckets-1] = 1 << 62 // catch-all
	return out
}()

// histogram is a lock-free latency histogram: geometric buckets with
// atomic counters, safe for any number of concurrent Observe callers.
type histogram struct {
	counts [histBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds, for mean
}

// Observe records one latency.
func (h *histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	lo, hi := 0, histBuckets-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d < histBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.total.Add(1)
	h.sum.Add(uint64(d))
}

// Count returns the number of observations.
func (h *histogram) Count() uint64 { return h.total.Load() }

// Quantile returns the upper boundary of the bucket holding quantile q
// (0 < q <= 1), or 0 with no observations. The answer is exact to the
// bucket's ~±25% resolution.
func (h *histogram) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.counts[i].Load()
		if seen > rank {
			return histBounds[i]
		}
	}
	return histBounds[histBuckets-1]
}

// Mean returns the arithmetic mean latency, or 0 with no observations.
func (h *histogram) Mean() time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / total)
}
