package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"prtree/internal/geom"
)

// ItemSize is the on-disk footprint of one rectangle record: four float64
// coordinates plus a 4-byte object pointer — the paper's 36-byte layout.
const ItemSize = 36

// ItemsPerBlock returns how many records fit in one block of the given size
// (113 for the default 4 KB block, matching the paper's fanout).
func ItemsPerBlock(blockSize int) int { return blockSize / ItemSize }

// EncodeItem serializes it into buf, which must hold ItemSize bytes.
func EncodeItem(buf []byte, it geom.Item) {
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(it.Rect.MinX))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(it.Rect.MinY))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(it.Rect.MaxX))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(it.Rect.MaxY))
	binary.LittleEndian.PutUint32(buf[32:], it.ID)
}

// DecodeRect deserializes only the rectangle of a record written by
// EncodeItem. It is the zero-copy read path's workhorse: intersection tests
// against page bytes decode the rect without touching the id.
func DecodeRect(buf []byte) geom.Rect {
	return geom.Rect{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(buf[24:])),
	}
}

// DecodeRef deserializes only the 4-byte pointer of a record written by
// EncodeItem.
func DecodeRef(buf []byte) uint32 {
	return binary.LittleEndian.Uint32(buf[32:])
}

// DecodeItem deserializes a record written by EncodeItem.
func DecodeItem(buf []byte) geom.Item {
	return geom.Item{
		Rect: geom.Rect{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(buf[24:])),
		},
		ID: binary.LittleEndian.Uint32(buf[32:]),
	}
}

// ItemFile is a sequential file of Items stored in whole blocks on a
// storage Backend —
// the TPIE "stream" the paper's bulk-loading algorithms operate on. Appends
// buffer one block in memory and spill to disk when full; reads scan block
// by block. All spills and scans count block I/O on the underlying Disk.
type ItemFile struct {
	dev      Backend
	perBlock int
	pages    []PageID
	n        int    // total records, including those in wbuf
	wbuf     []byte // current partially filled block
	wcount   int    // records in wbuf
	sealed   bool
}

// NewItemFile returns an empty item file on the backend.
func NewItemFile(dev Backend) *ItemFile {
	return &ItemFile{
		dev:      dev,
		perBlock: ItemsPerBlock(dev.BlockSize()),
		wbuf:     make([]byte, dev.BlockSize()),
	}
}

// NewItemFileFrom builds a sealed item file holding the given items,
// counting the block writes needed to store them.
func NewItemFileFrom(dev Backend, items []geom.Item) *ItemFile {
	f := NewItemFile(dev)
	for _, it := range items {
		f.Append(it)
	}
	f.Seal()
	return f
}

// Backend returns the store the file lives on. Code that consumes a file
// puts its own temporaries there too, so a caller chooses where a whole
// pipeline's temporaries go by choosing where its input file is.
func (f *ItemFile) Backend() Backend { return f.dev }

// Len returns the number of records in the file.
func (f *ItemFile) Len() int { return f.n }

// Blocks returns the number of disk blocks the file occupies once sealed.
func (f *ItemFile) Blocks() int {
	b := len(f.pages)
	if !f.sealed && f.wcount > 0 {
		b++
	}
	return b
}

// Append adds a record to the end of the file. It panics after Seal.
func (f *ItemFile) Append(it geom.Item) {
	if f.sealed {
		panic("storage: append to sealed ItemFile")
	}
	EncodeItem(f.wbuf[f.wcount*ItemSize:], it)
	f.wcount++
	f.n++
	if f.wcount == f.perBlock {
		f.flush()
	}
}

// AppendRaw adds one pre-encoded record (the first ItemSize bytes of rec)
// to the end of the file without a decode/encode round trip. It panics
// after Seal.
func (f *ItemFile) AppendRaw(rec []byte) {
	if f.sealed {
		panic("storage: append to sealed ItemFile")
	}
	copy(f.wbuf[f.wcount*ItemSize:], rec[:ItemSize])
	f.wcount++
	f.n++
	if f.wcount == f.perBlock {
		f.flush()
	}
}

// AppendRawBlock adds count pre-encoded records stored contiguously at the
// start of block. When the write buffer is empty and the block is full, the
// bytes go to a fresh page in a single write — the whole-block transfer the
// external merge uses to copy runs without touching individual records.
// The I/O count is the same as appending the records one at a time.
func (f *ItemFile) AppendRawBlock(block []byte, count int) {
	if f.sealed {
		panic("storage: append to sealed ItemFile")
	}
	if count*ItemSize > len(block) {
		panic(fmt.Sprintf("storage: raw block of %d bytes holds fewer than %d records", len(block), count))
	}
	if f.wcount == 0 && count == f.perBlock {
		id := f.dev.Alloc()
		f.dev.Write(id, block[:count*ItemSize])
		f.pages = append(f.pages, id)
		f.n += count
		return
	}
	for i := 0; i < count; i++ {
		f.AppendRaw(block[i*ItemSize:])
	}
}

// RawBlock returns the encoded bytes of the file's b-th block and the
// number of records they hold, counting one block read. The returned slice
// aliases the page and must be treated as read-only; it stays valid until
// the file is freed. The file must be sealed.
func (f *ItemFile) RawBlock(b int) (data []byte, count int) {
	if !f.sealed {
		panic("storage: RawBlock on unsealed ItemFile")
	}
	count = f.perBlock
	if b == len(f.pages)-1 {
		count = f.n - b*f.perBlock
	}
	return f.dev.ReadNoCopy(f.pages[b])[:count*ItemSize], count
}

// Seal flushes the final partial block and freezes the file for reading.
// Sealing an already sealed file is a no-op.
func (f *ItemFile) Seal() {
	if f.sealed {
		return
	}
	if f.wcount > 0 {
		f.flush()
	}
	f.sealed = true
}

func (f *ItemFile) flush() {
	id := f.dev.Alloc()
	f.dev.Write(id, f.wbuf[:f.wcount*ItemSize])
	f.pages = append(f.pages, id)
	f.wcount = 0
}

// Free releases the file's pages back to the disk.
func (f *ItemFile) Free() {
	f.Seal()
	for _, id := range f.pages {
		f.dev.Free(id)
	}
	f.pages = nil
	f.n = 0
}

// Reader returns a sequential scanner positioned at the start of the file.
// The file must be sealed.
func (f *ItemFile) Reader() *ItemReader {
	if !f.sealed {
		panic("storage: Reader on unsealed ItemFile")
	}
	return &ItemReader{f: f, block: -1}
}

// ReaderAt returns a scanner positioned at record index start.
func (f *ItemFile) ReaderAt(start int) *ItemReader {
	r := f.Reader()
	r.Seek(start)
	return r
}

// ItemReader scans an ItemFile block by block, counting one disk read per
// block fetched.
type ItemReader struct {
	f     *ItemFile
	buf   []byte
	block int // index into f.pages of the buffered block, -1 if none
	pos   int // next record index (global)
}

// Next returns the next record. ok is false at end of file.
func (r *ItemReader) Next() (it geom.Item, ok bool) {
	if r.pos >= r.f.n {
		return geom.Item{}, false
	}
	b := r.pos / r.f.perBlock
	if b != r.block {
		// Zero-copy view of the page: valid because file pages are
		// immutable once sealed and readers do not outlive Free.
		r.buf = r.f.dev.ReadNoCopy(r.f.pages[b])
		r.block = b
	}
	off := (r.pos % r.f.perBlock) * ItemSize
	r.pos++
	return DecodeItem(r.buf[off:]), true
}

// NextRaw returns the next record's encoded bytes without decoding,
// aliasing the underlying page (read-only, valid until the file is freed).
// ok is false at end of file.
func (r *ItemReader) NextRaw() (rec []byte, ok bool) {
	if r.pos >= r.f.n {
		return nil, false
	}
	b := r.pos / r.f.perBlock
	if b != r.block {
		r.buf = r.f.dev.ReadNoCopy(r.f.pages[b])
		r.block = b
	}
	off := (r.pos % r.f.perBlock) * ItemSize
	r.pos++
	return r.buf[off : off+ItemSize], true
}

// Seek positions the reader at global record index pos. The block holding
// pos is fetched lazily by the next call to Next.
func (r *ItemReader) Seek(pos int) {
	if pos < 0 || pos > r.f.n {
		panic(fmt.Sprintf("storage: seek %d out of range [0,%d]", pos, r.f.n))
	}
	r.pos = pos
	r.block = -1
}

// Pos returns the index of the next record to be returned.
func (r *ItemReader) Pos() int { return r.pos }

// ReadAll drains a sealed file into a slice, counting the scan's reads.
func (f *ItemFile) ReadAll() []geom.Item {
	out := make([]geom.Item, 0, f.n)
	r := f.Reader()
	for {
		it, ok := r.Next()
		if !ok {
			return out
		}
		out = append(out, it)
	}
}
