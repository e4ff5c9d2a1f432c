package logmethod

import (
	"encoding/binary"
	"fmt"
	"math"

	"prtree/internal/bulk"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// Persistence for the dynamized tree. A saved state is split between the
// backend's metadata blob and dedicated state pages:
//
//   - The meta blob (staged with SetMeta inside the caller's commit, so
//     it swaps atomically with the page writes) holds the fixed-size
//     part: magic, base, live/stored counters, the spill-chain heads,
//     and one rtree meta record per level slot.
//   - The buffer and the tombstone set can outgrow the meta blob's
//     one-block budget, so their records spill into chained state pages
//     (each page: next-pointer, count, packed 36-byte records). SaveState
//     rewrites both chains wholesale — unless the chains on the device are
//     the ones it wrote for this very buffer and tombstone set (no mutation
//     since, see savedChains), in which case the blob names them again and
//     the save writes no page: a Sync right after a Sync, and the save that
//     follows Settle, which changes nothing but the levels' page ids.
//
// That rewrite is O(buffer + tombstones), so it is not what a mutation
// pays. The owner (prtree.Dynamic) saves the state when the level
// directory changes — an inline carry, a rebuild, a background carry's
// install, a flush: TakeDirectoryChanged tells it — and when it
// checkpoints (Sync, Close). A mutation in between, which changes the
// buffer or the tombstone set only, is logged instead: Mutation.Note is
// its 37-byte record for the backend's write-ahead log, SavedNote the
// marker that goes with every save, and PendingMutations finds, in the
// notes a crash left in the log, the mutations to run again through
// Apply on top of the last saved state.
//
// SaveState must run inside a backend transaction, the one of the change
// it records: the chain rewrite (frees + fresh pages) then commits
// atomically with the meta swap, and a crash recovers either the whole
// new state or the whole old one via the existing WAL replay. Outside a
// transaction the freed chain pages would be handed out again and
// overwritten while the committed state still points at them.

// dynMagic identifies a serialized logmethod directory (version 1).
var dynMagic = [8]byte{'P', 'R', 'D', 'Y', 'N', 'A', '0', '1'}

const (
	itemRecSize     = 4 + 4*8 // ID + 4 float64 coords
	spillHeaderSize = 4 + 2   // next PageID + record count
	dynHeaderSize   = 8 + 4*8 // magic + base,live,stored,bufHead,bufCount,deadHead,deadCount,nLevels
)

// TakeDirectoryChanged reports whether the level directory changed — a
// carry, a rebuild or an install replaced levels — since the last call,
// and forgets it. The owner asks inside the transaction bracket of every
// mutation: true means the state must be saved in that transaction (its
// committed pages are about to be freed), false that a note will do.
func (t *Tree) TakeDirectoryChanged() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	changed := t.dirChanged
	t.dirChanged = false
	return changed
}

// Mutation is one logged change to the buffer or the tombstone set.
type Mutation struct {
	Delete bool // Delete(Item) rather than Insert(Item)
	Item   geom.Item
}

// Note kinds: the first byte of a note.
const (
	noteInsert byte = 1
	noteDelete byte = 2
	noteSaved  byte = 3
)

// Note encodes m for the write-ahead log: the kind, then the item as the
// state pages store it.
func (m Mutation) Note() []byte {
	kind := noteInsert
	if m.Delete {
		kind = noteDelete
	}
	return appendItem(append(make([]byte, 0, 1+itemRecSize), kind), m.Item)
}

// SavedNote returns the note that marks a SaveState in the log: every note
// before it is history, part of the state saved with it. It is a record of
// its own because nothing else tells a save apart — the blob of a save that
// changed nothing is byte-identical to the one before.
func SavedNote() []byte { return []byte{noteSaved} }

// PendingMutations decodes the notes recovered from a log, in commit
// order, and returns the mutations logged after the last SavedNote: the
// ones the last saved state does not hold yet.
func PendingMutations(notes [][]byte) ([]Mutation, error) {
	var out []Mutation
	for i, n := range notes {
		switch {
		case len(n) == 1 && n[0] == noteSaved:
			out = out[:0]
		case len(n) == 1+itemRecSize && (n[0] == noteInsert || n[0] == noteDelete):
			out = append(out, Mutation{Delete: n[0] == noteDelete, Item: decodeItem(n[1:])})
		default:
			return nil, fmt.Errorf("logmethod: note %d of %d bytes is no mutation record", i, len(n))
		}
	}
	return out, nil
}

// Apply runs m through the ordinary Insert or Delete. A logged delete of
// an item that was not there is the no-op it was the first time.
func (t *Tree) Apply(m Mutation) {
	if m.Delete {
		t.Delete(m.Item)
	} else {
		t.Insert(m.Item)
	}
}

// savedChains describes the state chains on the device: where they start,
// what they hold, and the state they were written for. Every mutation
// publishes a new state, so chains whose state is still the current one
// hold exactly its buffer and tombstones and a save may name them again
// instead of rewriting them. Settle, which publishes a state that differs
// in the levels' pages alone, carries the mark over to it.
type savedChains struct {
	of                  *state
	bufHead, deadHead   storage.PageID
	bufCount, deadCount int
	stored              int // the state's stored count once its merging snapshot is folded in
}

// SaveState brings the spill chains on dev up to the current state —
// rewriting them unless they already hold it — and returns the meta blob
// describing the full directory. Call inside a backend transaction — the
// one bracketing the change being persisted; stage the returned blob with
// SetMeta before committing.
func (t *Tree) SaveState(dev storage.Backend) []byte {
	s := t.st.Load()
	if t.chains.of != s {
		t.writeChains(dev, s)
	}
	c := &t.chains
	meta := make([]byte, 0, dynHeaderSize+len(s.levels)*(1+rtree.MetaSize))
	meta = append(meta, dynMagic[:]...)
	for _, v := range [8]int{t.base, s.live, c.stored, int(c.bufHead), c.bufCount, int(c.deadHead), c.deadCount, len(s.levels)} {
		meta = binary.LittleEndian.AppendUint32(meta, uint32(v))
	}
	for _, l := range s.levels {
		if l == nil {
			meta = append(meta, 0)
			continue
		}
		meta = append(meta, 1)
		meta = append(meta, l.EncodeMeta()...)
	}
	return meta
}

// writeChains replaces the spill chains on dev with s's buffer and
// tombstone set.
func (t *Tree) writeChains(dev storage.Backend, s *state) {
	// Fold the in-flight merge snapshot back into the buffer image: on
	// recovery the carry no longer exists, so its inputs are plain buffer
	// items again. Tombstones that target merge-snapshot items resolve
	// physically here, exactly as Carry.Abort resolves them in memory.
	items := make([]geom.Item, 0, len(s.buffer)+len(s.merging))
	dead := s.dead
	stored := s.stored
	for _, it := range s.merging {
		if r, gone := dead.get(it.ID); gone && r == it.Rect {
			dead = dead.remove(it.ID)
			stored--
			continue
		}
		items = append(items, it)
	}
	items = append(items, s.buffer...)

	// Replace the previous spill chains wholesale.
	for _, id := range t.spill {
		dev.Free(id)
	}
	t.spill = t.spill[:0]
	deadItems := make([]geom.Item, 0, dead.len())
	dead.each(func(id uint32, r geom.Rect) { deadItems = append(deadItems, geom.Item{ID: id, Rect: r}) })
	bufHead, bufPages := t.writeChain(dev, items)
	deadHead, deadPages := t.writeChain(dev, deadItems)
	t.spill = append(t.spill, bufPages...)
	t.spill = append(t.spill, deadPages...)
	t.chains = savedChains{of: s, bufHead: bufHead, deadHead: deadHead,
		bufCount: len(items), deadCount: dead.len(), stored: stored}
}

// writeChain packs recs into a fresh chain of state pages and returns the
// head id (NilPage when empty) plus the allocated pages.
func (t *Tree) writeChain(dev storage.Backend, recs []geom.Item) (storage.PageID, []storage.PageID) {
	if len(recs) == 0 {
		return storage.NilPage, nil
	}
	perPage := (dev.BlockSize() - spillHeaderSize) / itemRecSize
	if perPage <= 0 {
		panic("logmethod: block size too small for state records")
	}
	nPages := (len(recs) + perPage - 1) / perPage
	pages := make([]storage.PageID, nPages)
	for i := range pages {
		pages[i] = dev.Alloc()
	}
	buf := make([]byte, 0, dev.BlockSize())
	for i := 0; i < nPages; i++ {
		lo, hi := i*perPage, (i+1)*perPage
		if hi > len(recs) {
			hi = len(recs)
		}
		next := storage.NilPage
		if i+1 < nPages {
			next = pages[i+1]
		}
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(next))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(hi-lo))
		for _, it := range recs[lo:hi] {
			buf = appendItem(buf, it)
		}
		dev.Write(pages[i], buf)
	}
	return pages[0], pages
}

func appendItem(buf []byte, it geom.Item) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, it.ID)
	for _, f := range [4]float64{it.Rect.MinX, it.Rect.MinY, it.Rect.MaxX, it.Rect.MaxY} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

func decodeItem(b []byte) geom.Item {
	return geom.Item{
		ID: binary.LittleEndian.Uint32(b),
		Rect: geom.Rect{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(b[12:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(b[20:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(b[28:])),
		},
	}
}

// OpenState reconstructs a dynamized tree from a meta blob SaveState
// produced, reading the spill chains and reopening every level in place.
func OpenState(pager *storage.Pager, opt bulk.Options, meta []byte) (*Tree, error) {
	if len(meta) < dynHeaderSize {
		return nil, fmt.Errorf("logmethod: metadata record of %d bytes, want >= %d", len(meta), dynHeaderSize)
	}
	if [8]byte(meta[:8]) != dynMagic {
		return nil, fmt.Errorf("logmethod: bad directory magic %q", meta[:8])
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(meta[off:]) }
	base := int(u32(8))
	live := int(u32(12))
	stored := int(u32(16))
	bufHead := storage.PageID(u32(20))
	bufCount := int(u32(24))
	deadHead := storage.PageID(u32(28))
	deadCount := int(u32(32))
	nLevels := int(u32(36))
	if base <= 0 {
		return nil, fmt.Errorf("logmethod: non-positive base %d", base)
	}

	t := New(pager, opt, base)
	dev := pager.Backend()
	buffer, bufPages, err := readChain(dev, bufHead, bufCount)
	if err != nil {
		return nil, fmt.Errorf("logmethod: buffer chain: %w", err)
	}
	deadItems, deadPages, err := readChain(dev, deadHead, deadCount)
	if err != nil {
		return nil, fmt.Errorf("logmethod: tombstone chain: %w", err)
	}
	dead := tombstones{base: make(map[uint32]geom.Rect, len(deadItems))}
	for _, it := range deadItems {
		dead.base[it.ID] = it.Rect
	}
	dead.n = len(dead.base)

	levels := make([]*level, nLevels)
	off := dynHeaderSize
	for i := 0; i < nLevels; i++ {
		if off >= len(meta) {
			return nil, fmt.Errorf("logmethod: truncated level table at slot %d", i)
		}
		present := meta[off]
		off++
		if present == 0 {
			continue
		}
		if off+rtree.MetaSize > len(meta) {
			return nil, fmt.Errorf("logmethod: truncated level meta at slot %d", i)
		}
		l, err := rtree.OpenFromMeta(pager, meta[off:off+rtree.MetaSize])
		if err != nil {
			return nil, fmt.Errorf("logmethod: level %d: %w", i, err)
		}
		levels[i] = &level{Tree: l, mbr: l.MBR()}
		off += rtree.MetaSize
	}

	s := &state{
		buffer: buffer,
		levels: levels,
		dead:   dead,
		live:   live,
		stored: stored,
	}
	t.st.Store(s)
	// The chains on disk are the committed ones and hold this state; the
	// first SaveState after a mutation frees them when it writes
	// replacements.
	t.spill = append(bufPages, deadPages...)
	t.chains = savedChains{of: s, bufHead: bufHead, deadHead: deadHead,
		bufCount: bufCount, deadCount: deadCount, stored: stored}
	return t, nil
}

// readChain walks a spill chain, returning its records and page ids.
// count is the expected total, used both to pre-size and as a corruption
// bound on the walk.
func readChain(dev storage.Backend, head storage.PageID, count int) ([]geom.Item, []storage.PageID, error) {
	if head == storage.NilPage {
		if count != 0 {
			return nil, nil, fmt.Errorf("empty chain with declared count %d", count)
		}
		return nil, nil, nil
	}
	out := make([]geom.Item, 0, count)
	var pages []storage.PageID
	buf := make([]byte, dev.BlockSize())
	for id := head; id != storage.NilPage; {
		if len(pages) > count+1 {
			return nil, nil, fmt.Errorf("chain longer than declared count %d", count)
		}
		pages = append(pages, id)
		dev.Read(id, buf)
		next := storage.PageID(binary.LittleEndian.Uint32(buf))
		n := int(binary.LittleEndian.Uint16(buf[4:]))
		if spillHeaderSize+n*itemRecSize > len(buf) {
			return nil, nil, fmt.Errorf("state page %d declares %d records", id, n)
		}
		for i := 0; i < n; i++ {
			out = append(out, decodeItem(buf[spillHeaderSize+i*itemRecSize:]))
		}
		id = next
	}
	if len(out) != count {
		return nil, nil, fmt.Errorf("chain holds %d records, meta declares %d", len(out), count)
	}
	return out, pages, nil
}
