package bulk

// sortRec is what the radix sort moves: a record's precomputed Key and its
// position in the slice being sorted, 16 bytes in all. Orders computes
// every key exactly once and sorts these; the 40-byte records themselves
// are never moved by a sorting pass.
type sortRec struct {
	main uint64
	tie  uint32
	pos  uint32
}

func (r sortRec) key() Key { return Key{Main: r.main, Tie: r.tie} }

// radixDigits is the number of 8-bit digit positions in a Key: four for
// the Tie (least significant) and eight for the Main.
const radixDigits = 12

// radixMinN is the size below which a binary-insertion sort beats setting
// up histograms.
const radixMinN = 48

// digit extracts digit position p (LSD order) of r's key.
func (r sortRec) digit(p int) uint8 {
	if p < 4 {
		return uint8(r.tie >> (8 * p))
	}
	return uint8(r.main >> (8 * (p - 4)))
}

// sortRecs sorts a by (key, insertion order) using an LSD radix sort on
// the 96-bit key, stable, with trivial digit positions skipped. scratch
// must be at least len(a) long. The sorted data ends up in the returned
// slice, which is either a or scratch[:len(a)].
func sortRecs(a, scratch []sortRec) []sortRec {
	n := len(a)
	if n < radixMinN {
		insertionSortRecs(a)
		return a
	}
	// One scan builds the histogram of every digit position, so passes
	// whose 256 values collapse to one bucket (common in the high bytes of
	// both Tie and Main) are skipped without touching the data.
	var counts [radixDigits][256]int32
	for i := range a {
		tie, main := a[i].tie, a[i].main
		counts[0][uint8(tie)]++
		counts[1][uint8(tie>>8)]++
		counts[2][uint8(tie>>16)]++
		counts[3][uint8(tie>>24)]++
		counts[4][uint8(main)]++
		counts[5][uint8(main>>8)]++
		counts[6][uint8(main>>16)]++
		counts[7][uint8(main>>24)]++
		counts[8][uint8(main>>32)]++
		counts[9][uint8(main>>40)]++
		counts[10][uint8(main>>48)]++
		counts[11][uint8(main>>56)]++
	}
	src, dst := a, scratch[:n]
	for p := 0; p < radixDigits; p++ {
		c := &counts[p]
		if trivialDigit(c, n) {
			continue
		}
		// Prefix sums turn counts into scatter offsets.
		var sum int32
		for v := 0; v < 256; v++ {
			sum, c[v] = sum+c[v], sum
		}
		for i := range src {
			d := src[i].digit(p)
			dst[c[d]] = src[i]
			c[d]++
		}
		src, dst = dst, src
	}
	return src
}

// trivialDigit reports whether every record shares the same value at this
// digit position (one bucket holds all n).
func trivialDigit(c *[256]int32, n int) bool {
	for v := 0; v < 256; v++ {
		if int(c[v]) == n {
			return true
		}
		if c[v] != 0 {
			return false
		}
	}
	return true
}

func insertionSortRecs(a []sortRec) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && x.key().Less(a[j].key()) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}
