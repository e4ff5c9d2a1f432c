package pseudo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sync"
	"testing"

	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/storage"
)

// leafSetDigest hashes what the construction decides and nothing else: for
// each emitted group in emission order, its size and its member ids in
// ascending order (u32-LE each, sha256, first 8 bytes). The order of
// records inside a group is deliberately not part of it.
func leafSetDigest(groups []LeafGroup) string {
	h := sha256.New()
	var w [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(w[:], v)
		h.Write(w[:])
	}
	for _, lg := range groups {
		ids := make([]uint32, len(lg.Items))
		for i, it := range lg.Items {
			ids[i] = it.ID
		}
		slices.Sort(ids)
		put(uint32(len(ids)))
		for _, id := range ids {
			put(id)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// western returns the benchmark's dataset, generated once per test binary.
var western = sync.OnceValue(func() []geom.Item { return dataset.Western(300000, 2004) })

// sameSquare returns n copies of one record, id included: no key of any
// list separates them, so the first round cannot split and the build falls
// back to the in-memory construction despite N > M.
func sameSquare(n int) []geom.Item {
	items := make([]geom.Item, n)
	for i := range items {
		items[i] = geom.Item{Rect: geom.NewRect(3, 4, 5, 6), ID: 7}
	}
	return items
}

// TestExternalLeafSetGolden pins the leaf groups — members and emission
// order — to digests computed at commit a134b71, the last one whose
// external build sorted four times, handed every region four lists and
// filled the priority heaps in xmin order. Only the order of records
// inside the priority leaves of external rounds may differ from that
// commit; the digest leaves exactly that out. The last case is the
// benchmark's set-up as a default-budget facade load builds it: the exact
// in-memory construction over the whole set (the external path takes it
// for an input within M); on the benchmark its tree reads 5 % fewer leaves
// a query than the external round's.
func TestExternalLeafSetGolden(t *testing.T) {
	defer allowParallelism()()
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	cases := []struct {
		name   string
		items  []geom.Item
		b, m   int
		groups int
		digest string
	}{
		{name: "one round", items: randItems(6000, 21), b: per, m: 2000, groups: 56, digest: "c69f7829cddbf19f"},
		{name: "two rounds", items: randItems(30000, 23), b: per, m: 20 * per, groups: 268, digest: "b03ababfd020ca81"},
		{name: "many rounds", items: randItems(20000, 22), b: 16, m: 4 * per, groups: 1277, digest: "a26d63c0d4038a0f"},
		{name: "duplicate-key fallback", items: sameSquare(3000), b: per, m: 8 * per, groups: 27, digest: "8e155cf29d13942e"},
		// The benchmark's set-up: one round at the default M.
		{name: "western/M=65536", items: western(), b: per, m: 65536, groups: 1916, digest: "d2666d6bc2720217"},
		{name: "western/in-memory", items: western(), b: per, m: len(western()), groups: 1912, digest: "2c0ba6c4cc730a3f"},
	}
	for _, c := range cases {
		disk := storage.NewDisk(storage.DefaultBlockSize)
		in := storage.NewItemFileFrom(disk, c.items)
		var groups []LeafGroup
		BuildExternal(in, ExternalConfig{B: c.b, M: c.m, Workers: 2}, func(lg LeafGroup) {
			groups = append(groups, LeafGroup{Items: append([]geom.Item(nil), lg.Items...)})
		})
		if got := leafSetDigest(groups); got != c.digest || len(groups) != c.groups {
			t.Errorf("%s: %d groups with digest %s, want %d with %s", c.name, len(groups), got, c.groups, c.digest)
		}
	}
}
