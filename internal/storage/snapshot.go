package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Snapshot serialization of a Disk: every allocated page plus the
// freelist, so a bulk-loaded index can be persisted to a real file and
// reopened later (see rtree.Save / rtree.Load and the public prtree API).

// snapshotMagic identifies the on-disk format.
var snapshotMagic = [8]byte{'P', 'R', 'D', 'I', 'S', 'K', '0', '1'}

// WriteTo serializes the disk to w. It returns the number of bytes
// written. The format is:
//
//	magic[8] blockSize:u32 numPages:u32 freeCount:u32 free...:u32 pages...
func (d *Disk) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	write := func(data []byte) error {
		n, err := bw.Write(data)
		total += int64(n)
		return err
	}
	if err := write(snapshotMagic[:]); err != nil {
		return total, err
	}
	var u32 [4]byte
	putU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(u32[:], v)
		return write(u32[:])
	}
	if err := putU32(uint32(d.blockSize)); err != nil {
		return total, err
	}
	if err := putU32(uint32(len(d.pages))); err != nil {
		return total, err
	}
	if err := putU32(uint32(len(d.free))); err != nil {
		return total, err
	}
	for _, f := range d.free {
		if err := putU32(uint32(f)); err != nil {
			return total, err
		}
	}
	for _, p := range d.pages {
		if err := write(p); err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// ReadDiskFrom deserializes a disk written by WriteTo. It reads exactly
// the snapshot's bytes from r (no read-ahead), so callers may continue
// reading their own trailing data from the same reader.
func ReadDiskFrom(r io.Reader) (*Disk, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("storage: reading snapshot magic: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("storage: bad snapshot magic %q", magic[:])
	}
	var u32 [4]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(r, u32[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(u32[:]), nil
	}
	blockSize, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("storage: reading block size: %w", err)
	}
	if blockSize == 0 || blockSize > 1<<24 {
		return nil, fmt.Errorf("storage: implausible block size %d", blockSize)
	}
	numPages, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("storage: reading page count: %w", err)
	}
	freeCount, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("storage: reading freelist size: %w", err)
	}
	if freeCount > numPages {
		return nil, fmt.Errorf("storage: freelist %d exceeds pages %d", freeCount, numPages)
	}
	d := NewDisk(int(blockSize))
	d.free = make([]PageID, freeCount)
	for i := range d.free {
		v, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("storage: reading freelist: %w", err)
		}
		if v >= numPages {
			return nil, fmt.Errorf("storage: freelist entry %d out of range", v)
		}
		d.free[i] = PageID(v)
	}
	d.free.init()
	d.pages = make([][]byte, numPages)
	for i := range d.pages {
		d.pages[i] = make([]byte, blockSize)
		if _, err := io.ReadFull(r, d.pages[i]); err != nil {
			return nil, fmt.Errorf("storage: reading page %d: %w", i, err)
		}
	}
	return d, nil
}
