//go:build !linux

package storage

// lendsView reports false: there is no mapping to lend a view of.
func (*FileBackend) lendsView(PageID, []byte) bool { return false }
