//go:build linux

package storage

// lendsView reports whether data is page id's slot in the file's own
// mapping, as ReadNoCopy lends it.
func (fb *FileBackend) lendsView(id PageID, data []byte) bool {
	seg := fb.pm.segment(id)
	return seg != nil && len(data) > 0 && &data[0] == &seg.data[fb.offset(id)-seg.off]
}
