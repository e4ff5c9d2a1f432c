package rtree

import (
	"errors"
	"fmt"

	"prtree/internal/storage"
)

// The page format: a 4-byte header (kind, format flag, uint16 count)
// followed by 36-byte entries (four float64 coordinates plus a 4-byte
// reference) — the paper's node, 113 entries to a 4 KB block. Every page
// this package writes has format flag 0.
const (
	// headerSize is the page header: kind, format flag, uint16 count.
	headerSize = 4
	// entrySize is the entry width (the input record width: the paper's
	// 36-byte rectangle record).
	entrySize = storage.ItemSize
)

// MaxFanout returns the maximum entries per node for a block size (113 for
// 4 KB blocks) — the paper's fanout.
func MaxFanout(blockSize int) int {
	return (blockSize - headerSize) / entrySize
}

// errCompressedLayout reports an index written in the compressed page
// layout earlier versions offered: a metadata record whose layout word is
// not 0, or a page whose format flag is not 0. Those pages do not hold
// 36-byte entries, and reading them as such would answer queries wrongly.
var errCompressedLayout = errors.New("rtree: the compressed page layout is no longer read; rebuild the index")

// checkFormat reports a page whose format flag is not 0.
func checkFormat(id storage.PageID, v nodeView) error {
	if flag := v.data[1]; flag != 0 {
		return fmt.Errorf("%w (page %d has format flag %d)", errCompressedLayout, id, flag)
	}
	return nil
}
