package experiments

import "testing"

func TestFutureWorkUpdatesShape(t *testing.T) {
	cfg := tinyCfg()
	cfg.Scale = 0.25
	rounds := futureWork(cfg)
	// The totals behind every cell, to the last leaf. The heuristics read
	// entry order, so the order of records inside the loaded tree's pages
	// moves their columns, though the rebuilt one only reads leaf sets. The
	// loaded, the rebuilt and every log-method level are the in-memory PR
	// build (bulk.PRTreeSlice), the exact construction of the paper's §2.1.
	want := []churnRound{
		{queryTotals{62, 2647}, queryTotals{62, 2647}, queryTotals{62, 2647}, queryTotals{64, 2647}},
		{queryTotals{77, 2673}, queryTotals{73, 2673}, queryTotals{65, 2673}, queryTotals{94, 2673}},
		{queryTotals{74, 2198}, queryTotals{67, 2198}, queryTotals{52, 2198}, queryTotals{95, 2198}},
		{queryTotals{70, 1998}, queryTotals{63, 1998}, queryTotals{53, 1998}, queryTotals{122, 1998}},
		{queryTotals{66, 1783}, queryTotals{61, 1783}, queryTotals{54, 1783}, queryTotals{64, 1783}},
	}
	if len(rounds) != len(want) {
		t.Fatalf("rounds = %d", len(rounds))
	}
	for i, r := range rounds {
		if r != want[i] {
			t.Errorf("round %d: totals %+v, want %+v", i, r, want[i])
		}
	}
	last := rounds[len(rounds)-1]
	// The paper's §4 concern: heuristic updates erode the bulk-loaded
	// quality. After four churn rounds the updated tree must be measurably
	// worse than a fresh rebuild of the same live set.
	if parsePct(t, last.Guttman.pct()) <= parsePct(t, last.Rebuilt.pct()) {
		t.Errorf("updates should degrade queries: guttman %s vs rebuilt %s", last.Guttman.pct(), last.Rebuilt.pct())
	}
}
