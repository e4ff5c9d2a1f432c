package extmem

import (
	"fmt"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// ItemFile is a sequential file of Items stored in whole blocks on a
// storage.Backend, in storage's record encoding — the TPIE "stream" the
// paper's external constructions operate on. Appends buffer one block in
// memory and spill to the store when full; reads scan block by block.
// Every spill and scan counts block I/O on the store.
type ItemFile struct {
	dev      storage.Backend
	perBlock int
	pages    []storage.PageID
	n        int    // total records, including those in wbuf
	wbuf     []byte // current partially filled block
	wcount   int    // records in wbuf
	sealed   bool
}

// NewItemFile returns an empty item file on the backend.
func NewItemFile(dev storage.Backend) *ItemFile {
	return &ItemFile{
		dev:      dev,
		perBlock: storage.ItemsPerBlock(dev.BlockSize()),
		wbuf:     make([]byte, dev.BlockSize()),
	}
}

// NewItemFileFrom builds a sealed item file holding the given items,
// counting the block writes needed to store them.
func NewItemFileFrom(dev storage.Backend, items []geom.Item) *ItemFile {
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
func (f *ItemFile) Backend() storage.Backend { return f.dev }

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
		panic("extmem: append to sealed ItemFile")
	}
	storage.EncodeItem(f.wbuf[f.wcount*storage.ItemSize:], it)
	f.wcount++
	f.n++
	if f.wcount == f.perBlock {
		f.flush()
	}
}

// AppendRaw adds one pre-encoded record (the first storage.ItemSize bytes
// of rec) to the end of the file without a decode/encode round trip. It
// panics after Seal.
func (f *ItemFile) AppendRaw(rec []byte) {
	if f.sealed {
		panic("extmem: append to sealed ItemFile")
	}
	copy(f.wbuf[f.wcount*storage.ItemSize:], rec[:storage.ItemSize])
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
		panic("extmem: append to sealed ItemFile")
	}
	if count*storage.ItemSize > len(block) {
		panic(fmt.Sprintf("extmem: raw block of %d bytes holds fewer than %d records", len(block), count))
	}
	if f.wcount == 0 && count == f.perBlock {
		id := f.dev.Alloc()
		f.dev.Write(id, block[:count*storage.ItemSize])
		f.pages = append(f.pages, id)
		f.n += count
		return
	}
	for i := 0; i < count; i++ {
		f.AppendRaw(block[i*storage.ItemSize:])
	}
}

// RawBlock returns the encoded bytes of the file's b-th block and the
// number of records they hold, counting one block read. The returned slice
// aliases the page and must be treated as read-only; it stays valid until
// the file is freed. The file must be sealed.
func (f *ItemFile) RawBlock(b int) (data []byte, count int) {
	if !f.sealed {
		panic("extmem: RawBlock on unsealed ItemFile")
	}
	count = f.perBlock
	if b == len(f.pages)-1 {
		count = f.n - b*f.perBlock
	}
	return f.dev.ReadNoCopy(f.pages[b])[:count*storage.ItemSize], count
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
	f.dev.Write(id, f.wbuf[:f.wcount*storage.ItemSize])
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
		panic("extmem: Reader on unsealed ItemFile")
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
	off := (r.pos % r.f.perBlock) * storage.ItemSize
	r.pos++
	return storage.DecodeItem(r.buf[off:]), true
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
	off := (r.pos % r.f.perBlock) * storage.ItemSize
	r.pos++
	return r.buf[off : off+storage.ItemSize], true
}

// Seek positions the reader at global record index pos. The block holding
// pos is fetched lazily by the next call to Next.
func (r *ItemReader) Seek(pos int) {
	if pos < 0 || pos > r.f.n {
		panic(fmt.Sprintf("extmem: seek %d out of range [0,%d]", pos, r.f.n))
	}
	r.pos = pos
	r.block = -1
}

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
