package storage

import (
	"encoding/binary"
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
