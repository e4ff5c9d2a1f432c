package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// sample is one reported metric: the median of its per-segment (or
// per-repeat) values with the min–max spread beside it and the number of
// values behind the median.
type sample struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// spread is (max − min) ÷ median: how far one run's own segments disagree.
func (s sample) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Value)
}

func newSample(vals ...float64) sample {
	if len(vals) == 0 {
		return sample{}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return sample{Value: median(sorted), Min: sorted[0], Max: sorted[len(sorted)-1], N: len(vals)}
}

// median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quantile is the nearest-rank quantile of ascending latencies.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// mix is splitmix64 over (seed, i): the stateless generator that maps an
// operation number to its input, so the same seed replays the same
// operations whatever the caller interleaving.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// opFunc runs operation number opno on behalf of one caller and returns
// the latency the caller observed and whether the answer was correct.
// Checking happens after the clock stops.
type opFunc func(caller int, opno uint64) (time.Duration, bool)

// segment is one equal-count slice of a measured phase.
type segment struct {
	wall   time.Duration
	lat    []time.Duration // ascending
	failed int
}

func (s segment) opsPerSec() float64 { return float64(len(s.lat)) / s.wall.Seconds() }

// runSegment is the closed loop: callers goroutines each issue their share
// of n operations back to back, the next only after the previous returned.
func runSegment(callers, n int, base uint64, op opFunc) segment {
	lat := make([]time.Duration, n)
	failed := make([]int, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		lo, hi := c*n/callers, (c+1)*n/callers
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				d, ok := op(c, base+uint64(i))
				lat[i] = d
				if !ok {
					failed[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	seg := segment{wall: time.Since(start), lat: lat}
	for _, f := range failed {
		seg.failed += f
	}
	sortDurations(seg.lat)
	return seg
}

// minSegments keeps a median meaningful when few seconds are asked for.
const minSegments = 3

// phase is a measured run of whole segments.
type phase struct {
	segs []segment
}

// segmentCount turns the requested seconds into a number of segments, once:
// a segment takes about one second on the seed code. The program's speed
// never changes how many operations a phase runs, so both sides of a
// comparison do the same work on the same states.
func segmentCount(seconds float64) int {
	return max(int(math.Round(seconds)), minSegments)
}

// forSegments calls seg(0) … seg(n-1) for n = segmentCount(seconds).
// boundary, when not nil, runs after each segment: the place to read
// counters.
func forSegments(seconds float64, boundary func(), seg func(i int)) {
	for i, n := 0, segmentCount(seconds); i < n; i++ {
		seg(i)
		if boundary != nil {
			boundary()
		}
	}
}

// runPhase runs segmentCount(seconds) equal-count segments. Operation
// numbers continue from base so no two segments replay the same inputs.
func runPhase(seconds float64, callers, segOps int, base uint64, op opFunc, boundary func()) phase {
	var p phase
	forSegments(seconds, boundary, func(i int) {
		p.segs = append(p.segs, runSegment(callers, segOps, base+uint64(i*segOps), op))
	})
	return p
}

func (p phase) ops() (attempted, failed int64) {
	for _, s := range p.segs {
		attempted += int64(len(s.lat))
		failed += int64(s.failed)
	}
	return
}

// perSegment maps every segment to one number.
func (p phase) perSegment(f func(segment) float64) []float64 {
	out := make([]float64, len(p.segs))
	for i, s := range p.segs {
		out[i] = f(s)
	}
	return out
}

func (p phase) opsPerSec() sample { return newSample(p.perSegment(segment.opsPerSec)...) }

func (p phase) latency(q float64) sample {
	return newSample(p.perSegment(func(s segment) float64 { return us(quantile(s.lat, q)) })...)
}

// meanLatency is the mean over every operation of the phase.
func (p phase) meanLatency() float64 {
	var sum time.Duration
	n := 0
	for _, s := range p.segs {
		for _, d := range s.lat {
			sum += d
		}
		n += len(s.lat)
	}
	if n == 0 {
		return 0
	}
	return us(sum) / float64(n)
}
