package extmem

import (
	"prtree/internal/bulk"
	"prtree/internal/geom"
	"prtree/internal/storage"
)

// Sort externally sorts in by key: SortKeys with one key.
func Sort(in *ItemFile, key bulk.KeyFunc, m int) *ItemFile {
	return SortKeys(in, []bulk.KeyFunc{key}, m)[0]
}

// SortKeys externally sorts in once per key with m records of main memory
// and returns, in the order of keys, new sealed files with the sorted
// records, on the store the input lives on — as are the intermediate runs,
// which are freed. Run formation cuts the input into chunks of m records,
// sorts each by every key (bulk.Orders) and writes one run a key; merge
// passes then combine up to m/B-1 runs at a time, with a loser tree that
// moves encoded records (and, for run copies, whole blocks) without
// decode/encode round trips: O((N/B) log_{M/B}(N/B)) block I/Os a key.
// Each output, its runs and their boundaries are those of a sort by that
// key alone; the input is scanned once for all of them. The input file is
// left intact. m must allow at least three blocks (two inputs + one
// output) or SortKeys panics.
func SortKeys(in *ItemFile, keys []bulk.KeyFunc, m int) []*ItemFile {
	disk := in.Backend()
	perBlock := storage.ItemsPerBlock(disk.BlockSize())
	if m < 3*perBlock {
		panic("extmem: memory budget below three blocks")
	}
	out := make([]*ItemFile, len(keys))
	if in.Len() == 0 {
		for k := range out {
			out[k] = NewItemFile(disk)
			out[k].Seal()
		}
		return out
	}

	runs := formRuns(disk, in, keys, m)
	fanIn := max(m/perBlock-1, 2)
	// Every key has the same number of runs, so the keys go through the
	// merge passes together.
	for nRuns := len(runs[0]); nRuns > 1; {
		groups := (nRuns + fanIn - 1) / fanIn
		for k := range runs {
			next := make([]*ItemFile, groups)
			for g := range next {
				next[g] = mergeRuns(disk, runs[k][g*fanIn:min((g+1)*fanIn, nRuns)], keys[k])
			}
			runs[k] = next
		}
		nRuns = groups
	}
	for k := range out {
		out[k] = runs[k][0]
	}
	return out
}

// formRuns cuts the input into fixed chunks of m records, sorts each by
// every key, and writes each as one run per key: runs[k][i] is chunk i
// sorted by keys[k]. Each input block is read exactly once whatever the
// number of keys.
func formRuns(disk storage.Backend, in *ItemFile, keys []bulk.KeyFunc, m int) [][]*ItemFile {
	nRuns := (in.Len() + m - 1) / m
	runs := make([][]*ItemFile, len(keys))
	for k := range runs {
		runs[k] = make([]*ItemFile, nRuns)
	}
	r := in.Reader()
	chunk := make([]geom.Item, 0, min(m, in.Len()))
	var arena bulk.SortArena // one for every chunk
	for idx := range nRuns {
		chunk = chunk[:0]
		for len(chunk) < m {
			it, ok := r.Next()
			if !ok {
				break
			}
			chunk = append(chunk, it)
		}
		for k, key := range keys {
			run := NewItemFile(disk)
			arena.Sort(chunk, key, func(p int32) { run.Append(chunk[p]) })
			run.Seal()
			runs[k][idx] = run
		}
	}
	return runs
}
