package extmem

import (
	"prtree/internal/bulk"
	"prtree/internal/storage"
)

// mergeSource is one input run of a merge: its reader plus the current
// record's encoded bytes and precomputed key. The raw bytes alias the run's
// page and flow to the output without a decode/encode round trip; only the
// key extraction decodes.
type mergeSource struct {
	r    *ItemReader
	key  bulk.Key
	rec  []byte
	done bool
}

func (s *mergeSource) advance(key bulk.KeyFunc) {
	rec, ok := s.r.NextRaw()
	if !ok {
		s.done = true
		s.rec = nil
		return
	}
	s.rec = rec
	s.key = key(storage.DecodeItem(rec))
}

// loserTree is a flat tournament tree over k merge sources: node[1..k-1]
// hold the losers of each internal match and node[0] the overall winner.
// Replacing the winner and replaying its leaf-to-root path costs ceil(log2
// k) comparisons with no allocation — the container/heap it replaces boxed
// every push through an interface{}. Leaves occupy implicit positions
// k..2k-1 (source s at k+s), so the parent of source s is (s+k)/2.
type loserTree struct {
	k    int
	node []int32 // node[n] is the loser of match n; node[0] the winner
	src  []mergeSource
}

func newLoserTree(src []mergeSource) *loserTree {
	k := len(src)
	t := &loserTree{k: k, node: make([]int32, k), src: src}
	if k == 1 {
		t.node[0] = 0
		return t
	}
	t.node[0] = t.build(1)
	return t
}

// build plays the initial tournament of the subtree rooted at internal
// node n bottom-up, storing each match's loser at its node, and returns
// the subtree winner.
func (t *loserTree) build(n int) int32 {
	if n >= t.k {
		return int32(n - t.k)
	}
	a := t.build(2 * n)
	b := t.build(2*n + 1)
	if t.beats(a, b) {
		t.node[n] = b
		return a
	}
	t.node[n] = a
	return b
}

// beats reports whether source a wins the match against source b. An
// exhausted source loses to everything; equal keys go to the lower run
// index, which keeps the merge stable.
func (t *loserTree) beats(a, b int32) bool {
	if t.src[a].done {
		return false
	}
	if t.src[b].done {
		return true
	}
	ka, kb := t.src[a].key, t.src[b].key
	if ka != kb {
		return ka.Less(kb)
	}
	return a < b
}

// replay pushes source s up from its leaf, swapping with stored losers
// until it loses or reaches the root, and records the final winner.
func (t *loserTree) replay(s int32) {
	for n := (int(s) + t.k) / 2; n > 0; n /= 2 {
		if t.beats(t.node[n], s) {
			s, t.node[n] = t.node[n], s
		}
	}
	t.node[0] = s
}

// winner returns the index of the current overall winning source, or -1
// if every source is exhausted.
func (t *loserTree) winner() int32 {
	w := t.node[0]
	if t.src[w].done {
		return -1
	}
	return w
}

// mergeRuns merges the sorted runs into one sorted file and frees them.
// A single-run group (the tail of a pass) is copied block-by-block — the
// same reads and writes as a record-at-a-time copy, without decoding.
func mergeRuns(disk storage.Backend, runs []*ItemFile, key bulk.KeyFunc) *ItemFile {
	out := NewItemFile(disk)
	if len(runs) == 1 {
		run := runs[0]
		for b := 0; b < run.Blocks(); b++ {
			data, count := run.RawBlock(b)
			out.AppendRawBlock(data, count)
		}
		out.Seal()
		run.Free()
		return out
	}
	src := make([]mergeSource, len(runs))
	for i, run := range runs {
		src[i].r = run.Reader()
		src[i].advance(key)
	}
	t := newLoserTree(src)
	for {
		w := t.winner()
		if w < 0 {
			break
		}
		out.AppendRaw(src[w].rec)
		src[w].advance(key)
		t.replay(w)
	}
	out.Seal()
	for _, run := range runs {
		run.Free()
	}
	return out
}
