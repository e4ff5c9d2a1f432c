package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"prtree"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/storage"
	"prtree/internal/workload"
	"prtree/internal/zoo"
)

// fastRecovery are OpenOptions that make supervisor retries near-instant
// for tests.
func fastRecovery() OpenOptions {
	return OpenOptions{backoff: backoff{first: time.Millisecond, max: 5 * time.Millisecond}}
}

// buildDir shards items into a fresh temp directory and returns it.
func buildDir(t *testing.T, items []geom.Item, shards int) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := Build(dir, items, BuildOptions{Shards: shards}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// waitHealthy polls until the set is back to HealthOK or the deadline
// passes.
func waitHealthy(t *testing.T, set *Set, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if set.Health() == HealthOK {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("set did not recover to HealthOK within %v (health %v, stats %+v)",
		within, set.Health(), set.Stats().Status)
}

// TestQuarantineDegradesAndRecovers is the core failure-isolation cycle:
// an injected read fault on one shard degrades the query (naming the
// shard) instead of failing it, /healthz-level state dips to degraded,
// the supervisor brings the shard back, and post-recovery results are
// bit-identical to the healthy oracle.
func TestQuarantineDegradesAndRecovers(t *testing.T) {
	items := dataset.Western(1200, 21)
	world := geom.ItemsMBR(items)
	dir := buildDir(t, items, 3)

	// The supervisor's reopen waits for the test's go-ahead, so the
	// quarantine lasts as long as the assertions on it below.
	gate := make(chan struct{})
	allowRecovery := sync.OnceFunc(func() { close(gate) })
	opt := fastRecovery()
	opt.wrapShard = func(idx, attempt int, b prtree.Backend) prtree.Backend {
		if idx != 1 {
			return b
		}
		if attempt > 0 {
			<-gate
			return b
		}
		f := storage.NewFaulty(b, storage.FaultError, 3)
		f.InjectReads(true)
		return f
	}
	set, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	defer allowRecovery() // before Close, which waits for the supervisor
	if set.Health() != HealthOK {
		t.Fatalf("fresh set health %v, want ok", set.Health())
	}

	ctx := context.Background()
	oracle := zoo.Expect(items, zoo.Query{Rect: world}).Items()

	// The full-world window forces reads on every shard; the armed fault
	// fires on shard 1's 4th page read.
	got, p, err := set.Window(ctx, world, 0)
	if err != nil {
		t.Fatalf("degraded window failed outright: %v", err)
	}
	if !p.Degraded() {
		t.Fatal("window over a faulting shard did not degrade")
	}
	if len(p.Failed) != 1 || p.Failed[0] != 1 {
		t.Fatalf("failed shards %v, want [1]", p.Failed)
	}
	if set.Health() != HealthDegraded {
		t.Fatalf("health %v after quarantine, want degraded", set.Health())
	}
	// The degraded result is a strict subset of the oracle.
	if len(got) >= len(oracle) {
		t.Fatalf("degraded result has %d items, oracle %d — nothing missing?", len(got), len(oracle))
	}
	if err := zoo.Expect(items, zoo.Query{Rect: world}).CheckSubset(got); err != nil {
		t.Fatalf("degraded result: %v", err)
	}

	// While quarantined, further queries keep succeeding (degraded) and
	// keep naming the shard, without re-quarantining it.
	if _, p, err := set.Window(ctx, world, 0); err != nil || !p.Degraded() {
		t.Fatalf("second window: partial=%v err=%v", p, err)
	}

	// The supervisor reopens the shard clean (attempt > 0 gets no fault)
	// and restores it; results then match the oracle exactly: the world
	// and eight small windows item for item in merge order, and the 25
	// nearest ranked by (distance², ID), each with its distance.
	allowRecovery()
	waitHealthy(t, set, 5*time.Second)
	for _, w := range append(workload.Squares(world, 0.01, 8, 22), world) {
		got, p, err := set.Window(ctx, w, 0)
		if err != nil || p.Degraded() {
			t.Fatalf("post-recovery window: partial=%v err=%v", p, err)
		}
		assertSameItems(t, "post-recovery window", got, zoo.Expect(items, zoo.Query{Rect: w}).Items())
	}
	x, y := world.Center()
	nb, p, err := set.Nearest(ctx, x, y, 25)
	if err != nil || p.Degraded() || len(nb) != 25 {
		t.Fatalf("post-recovery nearest: %d results, partial=%v err=%v", len(nb), p, err)
	}
	for i, it := range zoo.Expect(items, zoo.Query{Kind: zoo.Nearest, X: x, Y: y, K: 25}).Ranked() {
		if want := (Neighbor{Item: it, Dist2: it.Rect.Dist2(x, y)}); nb[i] != want {
			t.Fatalf("post-recovery nearest: result %d = %+v, brute force %+v", i, nb[i], want)
		}
	}

	st := set.Stats()
	sd := st.Status[1]
	if sd.Quarantines != 1 || sd.Recoveries != 1 || sd.State != ShardHealthy {
		t.Fatalf("shard 1 status %+v, want 1 quarantine, 1 recovery, healthy", sd)
	}
	if st.Healthy != 3 {
		t.Fatalf("healthy count %d, want 3", st.Healthy)
	}
}

// TestQuarantineEveryCountedOp is the ISSUE's property sweep: kill shard
// 0 at EVERY counted read op in turn, and after recovery the set must
// answer bit-identically to the healthy oracle each time.
func TestQuarantineEveryCountedOp(t *testing.T) {
	items := dataset.Western(400, 33)
	world := geom.ItemsMBR(items)
	dir := buildDir(t, items, 2)
	ctx := context.Background()
	oracle := zoo.Expect(items, zoo.Query{Rect: world}).Items()

	// First pass: count shard 0's read ops for one full-world window. The
	// fault stays disarmed (trigger 0) through Open — Open itself reads
	// the root page for the MBR — and we measure only the query's reads.
	var probe *storage.Faulty
	opt := fastRecovery()
	opt.wrapShard = func(idx, attempt int, b prtree.Backend) prtree.Backend {
		if idx != 0 || attempt > 0 {
			return b
		}
		f := storage.NewFaulty(b, storage.FaultError, 0) // disarmed: count only
		f.InjectReads(true)
		probe = f
		return f
	}
	set, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	openOps := probe.Ops()
	if _, _, err := set.Window(ctx, world, 0); err != nil {
		t.Fatal(err)
	}
	queryOps := probe.Ops() - openOps
	set.Close()
	if queryOps < 2 {
		t.Fatalf("only %d counted query ops — the sweep would be vacuous", queryOps)
	}

	for k := int64(1); k <= queryOps; k++ {
		var faulty *storage.Faulty
		opt := fastRecovery()
		opt.wrapShard = func(idx, attempt int, b prtree.Backend) prtree.Backend {
			if idx != 0 || attempt > 0 {
				return b
			}
			f := storage.NewFaulty(b, storage.FaultError, 0)
			f.InjectReads(true)
			faulty = f
			return f
		}
		set, err := Open(dir, opt)
		if err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
		// Arm AFTER Open so the k-th counted op is the k-th QUERY read,
		// not something Open consumed — the fault must fire inside a
		// query leg, where it is recovered and quarantined.
		faulty.Arm(k)
		got, p, err := set.Window(ctx, world, 0)
		if err != nil {
			t.Fatalf("op %d: query failed outright: %v", k, err)
		}
		if !p.Degraded() {
			t.Fatalf("op %d: fault did not fire during the query (got %d items)", k, len(got))
		}
		waitHealthy(t, set, 5*time.Second)
		got, p, err = set.Window(ctx, world, 0)
		if err != nil || p.Degraded() {
			t.Fatalf("op %d: post-recovery partial=%v err=%v", k, p, err)
		}
		assertSameItems(t, "post-recovery sweep", got, oracle)
		set.Close()
	}
}

// TestContextCancelNotQuarantined: a client hanging up (or its deadline
// expiring) is the CLIENT's failure, and must never count against a
// shard.
func TestContextCancelNotQuarantined(t *testing.T) {
	items := dataset.Western(1500, 5)
	set := buildSet(t, items, 3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := set.Window(ctx, set.MBR(), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, _, err := set.Nearest(expired, 0, 0, 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}

	if set.Health() != HealthOK {
		t.Fatalf("health %v after context errors, want ok", set.Health())
	}
	for i, sd := range set.Stats().Status {
		if sd.State != ShardHealthy || sd.Quarantines != 0 || sd.Errors != 0 {
			t.Fatalf("shard %d was blamed for a context error: %+v", i, sd)
		}
	}
}

// TestPermanentFailure: a shard whose every reopen also fails exhausts
// its maxRecoveries attempts and lands in ShardFailed; the set stays
// degraded and keeps serving the healthy shards.
func TestPermanentFailure(t *testing.T) {
	items := dataset.Western(800, 13)
	world := geom.ItemsMBR(items)
	dir := buildDir(t, items, 2)

	var faulty *storage.Faulty
	opt := fastRecovery()
	opt.wrapShard = func(idx, attempt int, b prtree.Backend) prtree.Backend {
		if idx != 1 {
			return b
		}
		// Attempt 0 opens disarmed and is armed after Open below; every
		// reopen (attempt > 0) faults on its first read, so the
		// supervisor's scrub can never pass.
		trigger := int64(0)
		if attempt > 0 {
			trigger = 1
		}
		f := storage.NewFaulty(b, storage.FaultError, trigger)
		f.InjectReads(true)
		if attempt == 0 {
			faulty = f
		}
		return f
	}
	set, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	faulty.Arm(1)

	ctx := context.Background()
	if _, p, err := set.Window(ctx, world, 0); err != nil || !p.Degraded() {
		t.Fatalf("armed window: partial=%v err=%v, want degraded", p, err)
	}
	if set.Health() != HealthDegraded {
		t.Fatal("shard 1 never quarantined")
	}

	// Every reopen faults during the scrub, so after maxRecoveries the
	// shard is declared failed for good.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ShardState(set.shards[1].state.Load()) == ShardFailed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := set.Stats()
	sd := st.Status[1]
	if sd.State != ShardFailed {
		t.Fatalf("shard 1 state %v after exhausted recoveries, want failed (%+v)", sd.State, sd)
	}
	if sd.Attempts != maxRecoveries {
		t.Fatalf("shard 1 made %d attempts, want exactly maxRecoveries=%d", sd.Attempts, maxRecoveries)
	}
	if sd.Recoveries != 0 {
		t.Fatalf("shard 1 claims %d recoveries while permanently failed", sd.Recoveries)
	}

	// The set still serves, degraded, off the healthy shard.
	got, p, err := set.Window(ctx, world, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Degraded() || len(p.Failed) != 1 || p.Failed[0] != 1 {
		t.Fatalf("partial %v, want shard 1 failed", p)
	}
	oracle := zoo.Expect(items, zoo.Query{Rect: world}).Items()
	if len(got) == 0 || len(got) >= len(oracle) {
		t.Fatalf("degraded result has %d of %d items", len(got), len(oracle))
	}
	if set.Health() != HealthDegraded {
		t.Fatalf("health %v with one failed shard, want degraded", set.Health())
	}
}

// TestAllShardsDown: with every shard out of rotation, queries fail with
// ErrUnavailable and health reports down.
func TestAllShardsDown(t *testing.T) {
	// Enough items that each shard's tree spans multiple pages — Open
	// caches the root, so a one-page shard would never read again.
	items := dataset.Western(800, 8)
	world := geom.ItemsMBR(items)
	dir := buildDir(t, items, 2)

	faulties := make([]*storage.Faulty, 2)
	opt := fastRecovery()
	opt.wrapShard = func(idx, attempt int, b prtree.Backend) prtree.Backend {
		trigger := int64(0)
		if attempt > 0 {
			trigger = 1
		}
		f := storage.NewFaulty(b, storage.FaultError, trigger)
		f.InjectReads(true)
		if attempt == 0 {
			faulties[idx] = f
		}
		return f
	}
	set, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for _, f := range faulties {
		f.Arm(1)
	}

	// One armed query takes out both shards at once; reopens (trigger 1)
	// keep failing until maxRecoveries marks them failed for good.
	ctx := context.Background()
	set.Window(ctx, world, 0)
	deadline := time.Now().Add(10 * time.Second)
	for set.Health() != HealthDown && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if set.Health() != HealthDown {
		t.Fatalf("health %v, want down (stats %+v)", set.Health(), set.Stats().Status)
	}
	if _, _, err := set.Window(ctx, world, 0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
}
