package logmethod

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"prtree/internal/bulk"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// Persistence for the dynamized tree. A saved state is one meta blob —
// staged with SetMeta inside the caller's commit, so it swaps atomically
// with the page writes — and, when the blob cannot hold all of it, one
// chain of state pages:
//
//   - The blob starts with a fixed part (magic, base, the live and stored
//     counters, the buffer and tombstone counts, how many records the blob
//     holds itself, the chain's head) and the level table, one rtree meta
//     record per occupied level slot.
//   - Then comes the record stream: the buffer's items, then the
//     tombstones, the items deletes named, in (id, rect) order, 36 bytes
//     each in storage's item codec. The blob holds as many as fit the
//     page file's header block (storage.MetaCapacity); the rest go to the
//     chain (each page: next pointer, count, packed records). A small
//     index saves no state page.
//
// SaveState rewrites the chain wholesale — unless the chain on the device
// is the one it wrote for this very buffer and tombstone set (no mutation
// since, see savedChain), in which case the blob names it again and the
// save writes no page: a Sync right after a Sync, and the save that follows
// Settle, which changes nothing but the levels' page ids.
//
// That rewrite is O(buffer + tombstones), so it is not what a mutation
// pays. The owner (prtree.Dynamic) saves the state when the level
// directory changes — a carry, a rebuild, a flush, a Settle:
// TakeDirectoryChanged tells it — and when it checkpoints (Sync, Close). A
// mutation in between, which changes the buffer or the tombstone set only,
// is logged instead: Mutation.Note is its 37-byte record for the backend's
// write-ahead log, SavedNote the marker that goes with every save, and
// PendingMutations finds, in the notes a crash left in the log, the
// mutations to run again through Apply on top of the last saved state.
//
// SaveState must run inside a backend transaction, the one of the change
// it records: the chain rewrite (frees + fresh pages) then commits
// atomically with the meta swap, and a crash recovers either the whole new
// state or the whole old one via the existing WAL replay. Outside a
// transaction the freed chain pages would be handed out again and
// overwritten while the committed state still points at them.

// dynMagic identifies a serialized logmethod directory (version 2);
// retiredMagic the version 1 blob, which kept its records in two chains.
var (
	dynMagic     = [8]byte{'P', 'R', 'D', 'Y', 'N', 'A', '0', '2'}
	retiredMagic = [8]byte{'P', 'R', 'D', 'Y', 'N', 'A', '0', '1'}
)

// ErrRetiredFormat reports a dynamic index saved by an earlier build, in
// the version 1 directory format this one no longer reads. It wraps
// storage.ErrBadVersion.
var ErrRetiredFormat = fmt.Errorf("%w: dynamic index directory PRDYNA01 is no longer read; rebuild the index", storage.ErrBadVersion)

const (
	chainHeaderSize = 4 + 2   // next PageID + record count
	dynHeaderSize   = 8 + 8*4 // magic + base,live,stored,bufCount,deadCount,inlineCount,chainHead,nLevels
)

// TakeDirectoryChanged reports whether the level directory changed — a
// carry, a rebuild or a Settle replaced levels — since the last call,
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

// Note encodes m for the write-ahead log: the kind, then the item in the
// record codec of the saved state.
func (m Mutation) Note() []byte {
	note := make([]byte, 1+storage.ItemSize)
	note[0] = noteInsert
	if m.Delete {
		note[0] = noteDelete
	}
	storage.EncodeItem(note[1:], m.Item)
	return note
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
		case len(n) == 1+storage.ItemSize && (n[0] == noteInsert || n[0] == noteDelete):
			out = append(out, Mutation{Delete: n[0] == noteDelete, Item: storage.DecodeItem(n[1:])})
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

// savedChain describes the state chain on the device: its pages, head
// first, and the state and inline count it was written for. Every
// mutation publishes a new state, so a chain whose state is still the
// current one holds exactly the tail of its record stream, and a save
// whose blob holds as many records as before may name it again instead of
// rewriting it. Settle, which publishes a state that differs in the
// levels' pages alone, carries the mark over to it.
type savedChain struct {
	of     *state
	inline int
	pages  []storage.PageID
}

// SaveState brings the state chain on dev up to the current state —
// rewriting it unless it already holds it — and returns the meta blob
// describing the full directory. Call inside a backend transaction — the
// one bracketing the change being persisted; stage the returned blob with
// SetMeta before committing.
func (t *Tree) SaveState(dev storage.Backend) []byte {
	s := t.st.Load()
	recs := slices.Grow(slices.Clone(s.buffer), s.dead.len())
	s.dead.each(func(it geom.Item) { recs = append(recs, it) })
	// The order of the tombstones is fixed, so a save that names the chain
	// again puts the same records before it.
	slices.SortFunc(recs[len(s.buffer):], func(a, b geom.Item) int {
		return cmp.Or(cmp.Compare(a.ID, b.ID),
			cmp.Compare(a.Rect.MinX, b.Rect.MinX), cmp.Compare(a.Rect.MinY, b.Rect.MinY),
			cmp.Compare(a.Rect.MaxX, b.Rect.MaxX), cmp.Compare(a.Rect.MaxY, b.Rect.MaxY))
	})

	var table []byte
	for _, l := range s.levels {
		if l == nil {
			table = append(table, 0)
			continue
		}
		table = append(append(table, 1), l.EncodeMeta()...)
	}
	room := storage.MetaCapacity(dev.BlockSize()) - dynHeaderSize - len(table)
	inline := min(len(recs), max(room, 0)/storage.ItemSize)
	if t.chain.of != s || t.chain.inline != inline {
		t.writeChain(dev, recs[inline:])
		t.chain.of, t.chain.inline = s, inline
	}

	head := storage.NilPage
	if len(t.chain.pages) > 0 {
		head = t.chain.pages[0]
	}
	meta := make([]byte, 0, dynHeaderSize+len(table)+inline*storage.ItemSize)
	meta = append(meta, dynMagic[:]...)
	for _, v := range [8]int{t.base, s.live, s.stored, len(s.buffer), s.dead.len(), inline, int(head), len(s.levels)} {
		meta = binary.LittleEndian.AppendUint32(meta, uint32(v))
	}
	meta = append(meta, table...)
	for _, it := range recs[:inline] {
		meta = meta[:len(meta)+storage.ItemSize]
		storage.EncodeItem(meta[len(meta)-storage.ItemSize:], it)
	}
	return meta
}

// writeChain replaces the state chain on dev with one packing recs.
func (t *Tree) writeChain(dev storage.Backend, recs []geom.Item) {
	for _, id := range t.chain.pages {
		dev.Free(id)
	}
	perPage := (dev.BlockSize() - chainHeaderSize) / storage.ItemSize
	pages := make([]storage.PageID, (len(recs)+perPage-1)/perPage)
	for i := range pages {
		pages[i] = dev.Alloc()
	}
	buf := make([]byte, dev.BlockSize())
	for i, id := range pages {
		chunk := recs[i*perPage : min((i+1)*perPage, len(recs))]
		next := storage.NilPage
		if i+1 < len(pages) {
			next = pages[i+1]
		}
		binary.LittleEndian.PutUint32(buf, uint32(next))
		binary.LittleEndian.PutUint16(buf[4:], uint16(len(chunk)))
		for j, it := range chunk {
			storage.EncodeItem(buf[chainHeaderSize+j*storage.ItemSize:], it)
		}
		dev.Write(id, buf[:chainHeaderSize+len(chunk)*storage.ItemSize])
	}
	t.chain.pages = pages
}

// OpenState reconstructs a dynamized tree from a meta blob SaveState
// produced, reading the state chain and reopening every level in place.
// Every count the blob declares is held to what the blob and the store can
// hold before anything is sized by it, and the counts to each other.
func OpenState(pager *storage.Pager, opt bulk.Options, meta []byte) (*Tree, error) {
	if len(meta) >= 8 && [8]byte(meta[:8]) == retiredMagic {
		return nil, ErrRetiredFormat
	}
	if len(meta) < dynHeaderSize {
		return nil, fmt.Errorf("logmethod: metadata record of %d bytes, want >= %d", len(meta), dynHeaderSize)
	}
	if [8]byte(meta[:8]) != dynMagic {
		return nil, fmt.Errorf("logmethod: bad directory magic %q", meta[:8])
	}
	var w [8]int
	for i := range w {
		w[i] = int(binary.LittleEndian.Uint32(meta[8+4*i:]))
	}
	base, live, stored, bufCount, deadCount, inline, head, nLevels := w[0], w[1], w[2], w[3], w[4], w[5], storage.PageID(w[6]), w[7]
	switch {
	case base == 0:
		return nil, fmt.Errorf("logmethod: zero base")
	case nLevels > len(meta)-dynHeaderSize: // every slot takes a byte at least
		return nil, fmt.Errorf("logmethod: %d level slots in a %d-byte record", nLevels, len(meta))
	}
	levels := make([]*level, nLevels)
	off := dynHeaderSize
	sum := bufCount
	for i := range levels {
		if off >= len(meta) {
			return nil, fmt.Errorf("logmethod: truncated level table at slot %d", i)
		}
		off++
		if meta[off-1] == 0 {
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
		sum += l.Len()
		off += rtree.MetaSize
	}

	dev := pager.Backend()
	records := bufCount + deadCount
	perPage := (dev.BlockSize() - chainHeaderSize) / storage.ItemSize
	switch {
	case inline > records:
		return nil, fmt.Errorf("logmethod: %d inline records of %d", inline, records)
	case off+inline*storage.ItemSize != len(meta):
		return nil, fmt.Errorf("logmethod: %d-byte record declares %d records after its %d-byte directory", len(meta), inline, off)
	case records-inline > perPage*dev.NumPages():
		return nil, fmt.Errorf("logmethod: %d chained records in a store of %d pages", records-inline, dev.NumPages())
	case stored != sum:
		return nil, fmt.Errorf("logmethod: %d items stored, the buffer and levels hold %d", stored, sum)
	case live != stored-deadCount:
		return nil, fmt.Errorf("logmethod: %d live items of %d stored with %d tombstones", live, stored, deadCount)
	}
	recs := make([]geom.Item, inline, records)
	for i := range recs {
		recs[i] = storage.DecodeItem(meta[off+i*storage.ItemSize:])
	}
	recs, pages, err := readChain(dev, head, records, recs)
	if err != nil {
		return nil, fmt.Errorf("logmethod: state chain: %w", err)
	}
	dead := tombstones{base: make(map[geom.Item]struct{}, deadCount), n: deadCount}
	for _, it := range recs[bufCount:] {
		if _, dup := dead.base[it]; dup {
			return nil, fmt.Errorf("logmethod: item %d %v tombstoned twice", it.ID, it.Rect)
		}
		dead.base[it] = struct{}{}
	}

	t := New(pager, opt, base)
	// A full buffer slice: the first insert copies it off the records.
	s := &state{buffer: recs[:bufCount:bufCount], levels: levels, dead: dead, live: live, stored: stored}
	t.st.Store(s)
	// The chain on disk is the committed one and holds this state; the first
	// SaveState after a mutation frees it when it writes a replacement.
	t.chain = savedChain{of: s, inline: inline, pages: pages}
	return t, nil
}

// readChain appends the records of the chain at head to recs until it
// holds want, and returns it with the chain's page ids. Every page holds
// a record at least, so want bounds the walk.
func readChain(dev storage.Backend, head storage.PageID, want int, recs []geom.Item) ([]geom.Item, []storage.PageID, error) {
	var pages []storage.PageID
	for id := head; id != storage.NilPage; {
		if len(recs) == want || int(id) >= dev.NumPages() {
			return nil, nil, fmt.Errorf("page %d: past the chain's %d records or the store's %d pages", id, want, dev.NumPages())
		}
		pages = append(pages, id)
		buf := dev.ReadNoCopy(id)
		id = storage.PageID(binary.LittleEndian.Uint32(buf))
		n := int(binary.LittleEndian.Uint16(buf[4:]))
		if n == 0 || chainHeaderSize+n*storage.ItemSize > len(buf) || len(recs)+n > want {
			return nil, nil, fmt.Errorf("state page %d declares %d records", pages[len(pages)-1], n)
		}
		for i := range n {
			recs = append(recs, storage.DecodeItem(buf[chainHeaderSize+i*storage.ItemSize:]))
		}
	}
	if len(recs) != want {
		return nil, nil, fmt.Errorf("chain ends at %d records of %d", len(recs), want)
	}
	return recs, pages, nil
}
