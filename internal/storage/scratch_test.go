package storage

import (
	"bytes"
	"errors"
	"os"
	"sync"
	"testing"

	"prtree/internal/geom"
)

func scratchExists(t *testing.T, indexPath string) bool {
	t.Helper()
	_, err := os.Stat(ScratchPath(indexPath))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return err == nil
}

// TestScratchLifecycle: nothing on disk before the first Use, the file
// survives successful loads (no create and delete per load) with freed
// pages recycled at once, and Close removes it.
func TestScratchLifecycle(t *testing.T) {
	index := tempIndex(t)
	s := NewScratch(index, 256)
	if scratchExists(t, index) {
		t.Fatal("NewScratch created the file")
	}
	for round := 0; round < 3; round++ {
		err := s.Use(func() error {
			a, b := s.Alloc(), s.Alloc()
			s.Write(a, bytes.Repeat([]byte{0xAA}, 256))
			s.Write(b, []byte{1, 2, 3})
			s.Free(a)
			if c := s.Alloc(); c != a {
				t.Errorf("round %d: Alloc = %d, want the page %d freed a moment ago", round, c, a)
			} else if got := s.ReadNoCopy(c); !bytes.Equal(got, make([]byte, 256)) {
				t.Errorf("round %d: recycled page is not zeroed", round)
			}
			if got := s.ReadNoCopy(b); !bytes.Equal(got[:3], []byte{1, 2, 3}) || !bytes.Equal(got[3:], make([]byte, 253)) {
				t.Errorf("round %d: short write read back as %v...", round, got[:8])
			}
			s.Free(a)
			s.Free(b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !scratchExists(t, index) {
			t.Fatalf("round %d: a successful load removed the scratch file", round)
		}
		if s.NumPages() != 2 || s.PagesInUse() != 0 {
			t.Errorf("round %d: %d pages, %d in use; want 2, 0", round, s.NumPages(), s.PagesInUse())
		}
	}
	if got, want := s.Stats(), (Stats{Reads: 6, Writes: 6}); got != want {
		t.Errorf("Stats = %v, want %v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if scratchExists(t, index) {
		t.Error("Close left the scratch file behind")
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestScratchFailedLoadRemovesFile: a load that errors or panics takes the
// file (and the pages it leaked) with it — but only once no other load is
// still using the store.
func TestScratchFailedLoadRemovesFile(t *testing.T) {
	index := tempIndex(t)
	s := NewScratch(index, 256)
	boom := errors.New("boom")
	if err := s.Use(func() error { s.Alloc(); return boom }); err != boom {
		t.Fatalf("Use = %v, want the load's error", err)
	}
	if scratchExists(t, index) || s.NumPages() != 0 {
		t.Fatalf("failed load left the file (or %d pages) behind", s.NumPages())
	}

	// A panicking load inside a healthy one: the healthy load keeps its
	// pages readable, and the file goes when it leaves.
	err := s.Use(func() error {
		mine := s.Alloc()
		s.Write(mine, []byte("still here"))
		func() {
			defer func() { recover() }()
			s.Use(func() error { s.Alloc(); panic("load died") })
		}()
		if !scratchExists(t, index) {
			t.Error("a dying load removed the file under a running one")
		}
		if got := s.ReadNoCopy(mine); !bytes.HasPrefix(got, []byte("still here")) {
			t.Error("running load lost its page")
		}
		s.Free(mine)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scratchExists(t, index) {
		t.Error("file outlived the last user of a store with a failed load")
	}
	// The store is still good for the next load.
	if err := s.Use(func() error { s.Free(s.Alloc()); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScratchNil: the nil store means "temporaries share the tree's
// backend" and every handle-level method tolerates it.
func TestScratchNil(t *testing.T) {
	var s *Scratch
	d := NewDisk(256)
	if s.Or(d) != Backend(d) {
		t.Error("nil.Or(b) != b")
	}
	ran := false
	if err := s.Use(func() error { ran = true; return nil }); err != nil || !ran {
		t.Errorf("nil.Use: ran=%v err=%v", ran, err)
	}
	if s.Stats() != (Stats{}) || s.Close() != nil {
		t.Error("nil store reports I/O or fails to close")
	}
	s.ResetStats()
}

// TestScratchUnusableDirectory: the environment's failure is an error from
// Use, not a panic out of the first Alloc.
func TestScratchUnusableDirectory(t *testing.T) {
	s := NewScratch(tempIndex(t)+"/no/such/dir/index.pr", 256)
	err := s.Use(func() error { t.Error("load ran without a scratch file"); return nil })
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Use = %v, want a wrapped not-exist error", err)
	}
}

// TestRemoveScratch: stale files go, missing ones are fine.
func TestRemoveScratch(t *testing.T) {
	index := tempIndex(t)
	if err := RemoveScratch(index); err != nil {
		t.Fatalf("no stale file: %v", err)
	}
	if err := os.WriteFile(ScratchPath(index), []byte("left by a killed process"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RemoveScratch(index); err != nil {
		t.Fatal(err)
	}
	if scratchExists(t, index) {
		t.Error("stale scratch file survived")
	}
}

// TestScratchConcurrentItemFiles drives the store the way a parallel bulk
// load does: many goroutines writing,
// reading and freeing their own item files at once.
func TestScratchConcurrentItemFiles(t *testing.T) {
	s := NewScratch(tempIndex(t), 512)
	const workers, rounds, n = 8, 20, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			err := s.Use(func() error {
				for r := 0; r < rounds; r++ {
					items := make([]geom.Item, n)
					for i := range items {
						v := float64(w*1000000 + r*1000 + i)
						items[i] = geom.Item{Rect: geom.NewRect(v, v, v+1, v+1), ID: uint32(i)}
					}
					f := NewItemFileFrom(s, items)
					got := f.ReadAll()
					f.Free()
					for i := range items {
						if got[i] != items[i] {
							t.Errorf("worker %d round %d: record %d read back as %v", w, r, i, got[i])
							return nil
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if s.PagesInUse() != 0 {
		t.Errorf("%d pages still in use", s.PagesInUse())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
