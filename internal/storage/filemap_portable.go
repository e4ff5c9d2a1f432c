//go:build !linux

package storage

// pageMap is empty where the page file does not map itself: every
// ReadNoCopy is Read's verified pread into a private copy.
type pageMap struct{}

func (*pageMap) unverify(PageID) {}
func (*pageMap) unmap()          {}

// view lends no page: there is no mapping.
func (*FileBackend) view(PageID) []byte { return nil }
