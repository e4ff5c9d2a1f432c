package geom

// Item is a rectangle labeled with the identifier of the original spatial
// object, mirroring the paper's 36-byte input record: four 8-byte
// coordinates plus a 4-byte pointer to the original object.
type Item struct {
	Rect Rect
	ID   uint32
}

// ItemsMBR returns the minimal bounding rectangle of a non-empty item slice.
func ItemsMBR(items []Item) Rect {
	if len(items) == 0 {
		panic("geom: ItemsMBR of empty slice")
	}
	out := items[0].Rect
	for _, it := range items[1:] {
		out = out.Union(it.Rect)
	}
	return out
}
