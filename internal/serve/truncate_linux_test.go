//go:build linux

package serve

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// TestTruncatedShardDegradesNotDies: a shard file cut short under a live set
// takes pages out from under views the shard's cache holds, and the next
// touch of one raises SIGBUS where a pread used to come back short. The
// traversal runs with SetPanicOnFault, so the fault is a panic on the leg's
// goroutine and takes the quarantine path like a failed checksum: the query
// answers degraded naming the shard, the process lives, and recovery — which
// must not paper the hole over with a checkpoint's zeros when it closes the
// broken handle — reports the truncation from every reopen until it gives
// the shard up.
func TestTruncatedShardDegradesNotDies(t *testing.T) {
	items := dataset.Western(3000, 23)
	world := geom.ItemsMBR(items)
	dir := buildDir(t, items, 3)

	set, err := Open(dir, fastRecovery())
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	ctx := context.Background()
	oracle := zoo.Expect(items, zoo.Query{Rect: world}).Items()
	// Warm every shard's cache: the views are taken now, the pages go later.
	if got, p, err := set.Window(ctx, world, 0); err != nil || p.Degraded() || len(got) != len(oracle) {
		t.Fatalf("healthy window: %d items (want %d), partial %+v, err %v", len(got), len(oracle), p, err)
	}

	const victim = 1
	path := filepath.Join(dir, set.Manifest().Shards[victim].File)
	full, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(2*storage.DefaultBlockSize)); err != nil {
		t.Fatal(err)
	}

	got, p, err := set.Window(ctx, world, 0)
	if err != nil {
		t.Fatalf("window over a truncated shard failed outright: %v", err)
	}
	if len(p.Failed) != 1 || p.Failed[0] != victim {
		t.Fatalf("failed shards %v, want [%d]", p.Failed, victim)
	}
	if len(got) == 0 || len(got) >= len(oracle) {
		t.Fatalf("degraded result has %d items, oracle %d", len(got), len(oracle))
	}

	deadline := time.Now().Add(10 * time.Second)
	var st ShardStatus
	for {
		st = set.Stats().Status[victim]
		if st.State == ShardFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery still at it after 10s: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if st.Attempts != maxRecoveries {
		t.Errorf("%d reopen attempts, want %d", st.Attempts, maxRecoveries)
	}
	if !strings.Contains(st.LastErr, storage.ErrTruncated.Error()) {
		t.Errorf("recovery reports %q, want %q", st.LastErr, storage.ErrTruncated)
	}
	if now, err := os.Stat(path); err != nil || now.Size() >= full.Size() {
		t.Errorf("closing the broken handle grew the file back: %d bytes (was cut from %d), err %v", now.Size(), full.Size(), err)
	}
	// The other shards never noticed.
	if _, p, err := set.Window(ctx, world, 0); err != nil || len(p.Failed) != 1 {
		t.Fatalf("window after the shard was given up: partial %+v, err %v", p, err)
	}
}
