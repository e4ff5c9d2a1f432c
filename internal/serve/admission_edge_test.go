package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAdmissionConcurrentFixedCap hammers acquire/release from many
// goroutines on three tenants under a cap of 2, so admissions and
// rejections interleave. Run under -race this is the admission race
// check; the invariants asserted at the end are exact accounting: every
// attempt was admitted or rejected, the rejection counter matches what
// callers saw, and everything admitted was released, so the in-flight map
// is empty.
func TestAdmissionConcurrentFixedCap(t *testing.T) {
	a := newAdmission(2)
	var admitted, rejected atomic.Uint64
	var workers sync.WaitGroup
	for g := 0; g < 8; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			tenant := string(rune('a' + g%3))
			for i := 0; i < 2000; i++ {
				if err := a.acquire(tenant); err != nil {
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("unexpected acquire error: %v", err)
						return
					}
					rejected.Add(1)
					continue
				}
				admitted.Add(1)
				a.release(tenant)
			}
		}(g)
	}
	workers.Wait()

	if admitted.Load()+rejected.Load() != 8*2000 {
		t.Fatalf("admitted %d + rejected %d != %d attempts", admitted.Load(), rejected.Load(), 8*2000)
	}
	if got := a.rejectedCount(); got != rejected.Load() {
		t.Fatalf("rejectedCount %d, callers saw %d", got, rejected.Load())
	}
	a.mu.Lock()
	leaked := len(a.inflight)
	a.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d tenants still marked in flight after full drain", leaked)
	}
}
