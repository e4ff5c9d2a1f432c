//go:build !linux

package storage

// pageMap is empty where the page file does not map itself: FileBackend has
// no ReadStable there, the pager finds no StableReader, and every read is
// Read's verified pread.
type pageMap struct{}

func (*pageMap) unverify(PageID) {}
func (*pageMap) unmap()          {}
