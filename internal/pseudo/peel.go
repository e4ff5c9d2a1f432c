package pseudo

import "math"

// fusedMin is the least window whose four priority leaves peelFused finds
// in one pass. Below it the window's records fit the cache, and four
// selections over them cost less than the pass's bookkeeping.
const fusedMin = 8192

// seedSize is the sample a fused pass draws to seed its thresholds.
const seedSize = 256

// cand is a candidate for a priority leaf: its key under the direction's
// order, its id and its position in the window.
type cand struct {
	key float64
	id  uint32
	pos int32
}

// before reports whether a orders strictly before b: the construction's
// order, with ids[a.pos] the index the last tie-break compares.
func (a cand) before(b cand, ids []int32) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return ids[a.pos] < ids[b.pos]
}

// peelScratch is one worker's buffers for peelFused: a candidate buffer per
// direction, direction d's holding up to 2(d+1)·B, and the chosen records'
// positions and indices, 4·B each. A build goroutine owns one; the two
// sides of a fork never share it.
type peelScratch struct {
	buf  [4][]cand
	pos  []int32
	vals []int32
}

func newPeelScratch(b int) *peelScratch {
	s := &peelScratch{pos: make([]int32, 4*b), vals: make([]int32, 4*b)}
	for d := range s.buf {
		s.buf[d] = make([]cand, 0, 2*(d+1)*b)
	}
	return s
}

// peel moves the window's four priority leaves to its front, as four
// selectK peels in direction order would: the xmin leaf to ids[:b], the
// ymin leaf to ids[b:2b], then xmax and ymax, the remainder behind them.
// From fusedMin records on it reads the window once (peelFused) and needs
// s; below that, or when the pass cannot, it runs the four selections.
func (t *Tree) peel(ids []int32, s *peelScratch) {
	if len(ids) >= fusedMin && t.peelFused(ids, s, t.seedThresholds(ids)) {
		return
	}
	for dir, rest := 0, ids; dir < 4; dir++ {
		selectK(t.items, rest, t.B, ExtremeOrder(dir))
		rest = rest[t.B:]
	}
}

// peelFused is peel in one pass over a window of more than 4·b records,
// starting from the thresholds thr, and reports whether it peeled: it
// does not only on keys no threshold admits (NaN).
//
// Direction d's leaf is the b most extreme records under ExtremeOrder(d)
// once the d leaves before it are gone, so it lies within the window's
// (d+1)·b most extreme records in that order. The pass keeps, per
// direction, every record whose key reaches the direction's threshold in a
// buffer of twice that size; a full buffer is cut back to its (d+1)·b most
// extreme by selection and the threshold tightened to the last of them, so
// the buffer always holds the (d+1)·b most extreme records read so far.
// Thresholds seeded from a sample (seedThresholds) rather than infinity
// spare the early part of the pass most of its admissions; a buffer that
// ends with fewer than (d+1)·b records had a seed the sample set too
// tight, and the pass runs again unseeded. The exact peels then select
// among the candidates, and O(b) moves put the leaves in front.
func (t *Tree) peelFused(ids []int32, s *peelScratch, thr [4]float64) bool {
	b := t.B
	if !t.scanCands(ids, s, thr) {
		inf := math.Inf(1)
		if !t.scanCands(ids, s, [4]float64{inf, inf, inf, inf}) {
			return false
		}
	}
	// The exact peels, in direction order. A chosen record is marked by
	// complementing its index in ids, which drops it from the later
	// directions' candidates.
	for d := range s.buf {
		c := s.buf[d][:0]
		for _, x := range s.buf[d] {
			if ids[x.pos] >= 0 {
				c = append(c, x)
			}
		}
		selectCands(c, b, ids)
		for i, x := range c[:b] {
			s.pos[d*b+i] = x.pos
			ids[x.pos] = ^ids[x.pos]
		}
	}
	for i, p := range s.pos {
		s.vals[i] = ^ids[p]
	}
	// Every unchosen record in the front takes the place of a chosen one
	// behind it; then the chosen fill the front, leaf by leaf.
	front, q := int32(4*b), 0
	for i, v := range ids[:front] {
		if v < 0 {
			continue
		}
		for s.pos[q] < front {
			q++
		}
		ids[s.pos[q]] = ids[i]
		q++
	}
	copy(ids, s.vals)
	return true
}

// scanCands fills s's buffers in one pass over the window under the given
// thresholds and reports whether each direction's holds at least its
// (d+1)·b.
func (t *Tree) scanCands(ids []int32, s *peelScratch, thr [4]float64) bool {
	for d := range s.buf {
		s.buf[d] = s.buf[d][:0]
	}
	t0, t1, t2, t3 := thr[0], thr[1], thr[2], thr[3]
	items := t.items
	for i, v := range ids {
		it := &items[v]
		if k := it.Rect.MinX; k <= t0 {
			t0 = s.admit(0, cand{k, it.ID, int32(i)}, t0, t.B, ids)
		}
		if k := it.Rect.MinY; k <= t1 {
			t1 = s.admit(1, cand{k, it.ID, int32(i)}, t1, t.B, ids)
		}
		if k := -it.Rect.MaxX; k <= t2 {
			t2 = s.admit(2, cand{k, it.ID, int32(i)}, t2, t.B, ids)
		}
		if k := -it.Rect.MaxY; k <= t3 {
			t3 = s.admit(3, cand{k, it.ID, int32(i)}, t3, t.B, ids)
		}
	}
	for d := range s.buf {
		if len(s.buf[d]) < (d+1)*t.B {
			return false
		}
	}
	return true
}

// admit adds c to direction d's buffer and returns the direction's
// threshold: thr, or, when the buffer filled, the key of the last of the
// (d+1)·b records it was cut back to.
func (s *peelScratch) admit(d int, c cand, thr float64, b int, ids []int32) float64 {
	buf := append(s.buf[d], c)
	s.buf[d] = buf
	if len(buf) < cap(buf) {
		return thr
	}
	keep := (d + 1) * b
	selectCands(buf, keep-1, ids)
	s.buf[d] = buf[:keep]
	return buf[keep-1].key
}

// seedThresholds returns each direction's starting threshold, read off a
// sample of seedSize records: the key at the sample rank where the
// direction's (d+1)·b most extreme records are expected to end, plus three
// standard deviations and one, so that a window holds fewer than (d+1)·b
// records within it about once in a thousand passes. A direction the
// sample cannot seed starts from infinity.
func (t *Tree) seedThresholds(ids []int32) [4]float64 {
	var sample [4][seedSize]cand
	n := uint64(len(ids))
	rng := uint64(0x9e3779b97f4a7c15) ^ n
	for i := range sample[0] {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		pos := int32((rng >> 32) * n >> 32)
		it := &t.items[ids[pos]]
		r := &it.Rect
		sample[0][i] = cand{r.MinX, it.ID, pos}
		sample[1][i] = cand{r.MinY, it.ID, pos}
		sample[2][i] = cand{-r.MaxX, it.ID, pos}
		sample[3][i] = cand{-r.MaxY, it.ID, pos}
	}
	var thr [4]float64
	for d := range sample {
		mu := float64(seedSize*(d+1)*t.B) / float64(n)
		thr[d] = math.Inf(1)
		if r := int(mu+3*math.Sqrt(mu)) + 1; r < seedSize {
			selectCands(sample[d][:], r, ids)
			thr[d] = sample[d][r].key
		}
	}
	return thr
}

// selectCands permutes c so that c[k] is its candidate of rank k, with
// c[:k] the candidates before it; k outside (0, len(c)) leaves c as it is.
func selectCands(c []cand, k int, ids []int32) {
	if k <= 0 || k >= len(c) {
		return
	}
	lo, hi := 0, len(c)
	rng := uint64(0x9e3779b97f4a7c15)
	for hi-lo > 1 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		p, last := lo+int(rng%uint64(hi-lo)), hi-1
		c[p], c[last] = c[last], c[p]
		pc := c[last]
		j := lo
		for i := lo; i < last; i++ {
			if c[i].before(pc, ids) {
				c[i], c[j] = c[j], c[i]
				j++
			}
		}
		c[last], c[j] = c[j], pc
		switch {
		case k < j:
			hi = j
		case k > j:
			lo = j + 1
		default:
			return
		}
	}
}
