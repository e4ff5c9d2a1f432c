package storage

import (
	"testing"
	"testing/quick"

	"prtree/internal/geom"
)

func TestItemCodecRoundTrip(t *testing.T) {
	it := geom.Item{Rect: geom.NewRect(1.5, -2.25, 3.75, 4.125), ID: 0xdeadbeef}
	buf := make([]byte, ItemSize)
	EncodeItem(buf, it)
	got := DecodeItem(buf)
	if got != it {
		t.Errorf("round trip = %+v, want %+v", got, it)
	}
}

func TestItemCodecQuick(t *testing.T) {
	prop := func(a, b, c, d float64, id uint32) bool {
		it := geom.Item{Rect: geom.Rect{MinX: a, MinY: b, MaxX: c, MaxY: d}, ID: id}
		buf := make([]byte, ItemSize)
		EncodeItem(buf, it)
		got := DecodeItem(buf)
		// NaN != NaN, so compare bit patterns via re-encoding.
		buf2 := make([]byte, ItemSize)
		EncodeItem(buf2, got)
		for i := range buf {
			if buf[i] != buf2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestItemsPerBlock(t *testing.T) {
	if got := ItemsPerBlock(DefaultBlockSize); got != 113 {
		t.Errorf("ItemsPerBlock(4096) = %d, want 113 (paper's fanout)", got)
	}
}
