package main

import (
	"fmt"
	"sort"
	"sync"

	"prtree/internal/geom"
)

// fingerprint is what the timed loop compares: cheap to compute from a
// result, and a wrong, missing or duplicated item changes at least one
// field.
type fingerprint struct {
	count int
	xor   uint32
	sum   uint64
}

func fingerprintOf(items []geom.Item) fingerprint {
	fp := fingerprint{count: len(items)}
	for _, it := range items {
		fp.xor ^= it.ID
		fp.sum += uint64(it.ID)
	}
	return fp
}

// bruteForce appends every item intersecting q to out, in slice order. It
// is the reference every answer is checked against and shares no code with
// the index.
func bruteForce(items []geom.Item, q geom.Rect, out []geom.Item) []geom.Item {
	for _, it := range items {
		if it.Rect.Intersects(q) {
			out = append(out, it)
		}
	}
	return out
}

func sortByID(items []geom.Item) {
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
}

// sameItems compares two ID-ordered results item by item.
func sameItems(got, want []geom.Item) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// verifyAll computes each rect's full oracle answer once, compares it item
// by item against query's answer for the same rect, and returns the
// fingerprints the timed loop will check. IDs must ascend along items.
// query is called from workers goroutines (worker index first) and may
// return its items in any order.
func verifyAll(items []geom.Item, rects []geom.Rect, workers int, query func(worker int, q geom.Rect) ([]geom.Item, error)) ([]fingerprint, int, error) {
	fps := make([]fingerprint, len(rects))
	mismatches := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(rects)/workers, (w+1)*len(rects)/workers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var want []geom.Item
			for k := lo; k < hi; k++ {
				want = bruteForce(items, rects[k], want[:0])
				fps[k] = fingerprintOf(want)
				got, err := query(w, rects[k])
				if err != nil {
					errs[w] = fmt.Errorf("verifying rect %d: %w", k, err)
					return
				}
				sortByID(got)
				if !sameItems(got, want) {
					mismatches[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	bad := 0
	for w := range mismatches {
		if errs[w] != nil {
			return nil, 0, errs[w]
		}
		bad += mismatches[w]
	}
	return fps, bad, nil
}

// optimalLeaves is the paper's lower bound for reporting t results from
// leaves of capacity b: ⌈t/b⌉ blocks.
func optimalLeaves(t, b int) int { return (t + b - 1) / b }
