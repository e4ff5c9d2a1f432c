package serve

import (
	"errors"
	"fmt"
	"sync"
)

// ErrOverloaded is the typed admission-control rejection: the tenant
// already has its full cap of requests in flight. Callers test it with
// errors.Is; the binary protocol maps it to CodeOverloaded.
var ErrOverloaded = errors.New("serve: tenant in-flight cap reached")

// admission enforces a fixed per-tenant in-flight request cap. The zero
// tenant id shares one bucket named "default", so anonymous clients are
// capped too rather than uncapped. A nil *admission admits everything.
type admission struct {
	cap int // > 0, fixed for the admission's life

	mu       sync.Mutex
	inflight map[string]int
	rejected uint64
}

// newAdmission returns a limiter capping every tenant at cap in-flight
// requests, or nil (no admission control) when cap <= 0.
func newAdmission(cap int) *admission {
	if cap <= 0 {
		return nil
	}
	return &admission{cap: cap, inflight: make(map[string]int)}
}

// normTenant maps the empty tenant onto the shared default bucket.
func normTenant(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// acquire admits one request for tenant, or reports ErrOverloaded. Every
// successful acquire must be paired with exactly one release.
func (a *admission) acquire(tenant string) error {
	if a == nil {
		return nil
	}
	tenant = normTenant(tenant)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight[tenant] >= a.cap {
		a.rejected++
		return fmt.Errorf("%w (tenant %q, cap %d)", ErrOverloaded, tenant, a.cap)
	}
	a.inflight[tenant]++
	return nil
}

// release returns tenant's slot.
func (a *admission) release(tenant string) {
	if a == nil {
		return
	}
	tenant = normTenant(tenant)
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := a.inflight[tenant]; n > 1 {
		a.inflight[tenant] = n - 1
	} else {
		delete(a.inflight, tenant)
	}
}

// capNow returns the cap, or -1 when admission control is off.
func (a *admission) capNow() int {
	if a == nil {
		return -1
	}
	return a.cap
}

// rejectedCount returns the cumulative rejections.
func (a *admission) rejectedCount() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rejected
}
