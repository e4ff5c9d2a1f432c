package experiments

import "testing"

func TestFutureWorkUpdatesShape(t *testing.T) {
	cfg := tinyCfg()
	cfg.Scale = 0.25
	rounds := futureWork(cfg)
	// The totals behind every heuristic and rebuilt cell, to the last leaf.
	// The heuristics read entry order, so the order of records inside the
	// loaded tree's pages moves their columns, though the rebuilt one only
	// reads leaf sets.
	want := []churnRound{
		{Guttman: queryTotals{66, 2647}, RStar: queryTotals{66, 2647}, Rebuilt: queryTotals{66, 2647}},
		{Guttman: queryTotals{80, 2673}, RStar: queryTotals{74, 2673}, Rebuilt: queryTotals{65, 2673}},
		{Guttman: queryTotals{81, 2198}, RStar: queryTotals{72, 2198}, Rebuilt: queryTotals{55, 2198}},
		{Guttman: queryTotals{79, 1998}, RStar: queryTotals{72, 1998}, Rebuilt: queryTotals{54, 1998}},
		{Guttman: queryTotals{69, 1783}, RStar: queryTotals{67, 1783}, Rebuilt: queryTotals{54, 1783}},
	}
	if len(rounds) != len(want) {
		t.Fatalf("rounds = %d", len(rounds))
	}
	for i, r := range rounds {
		r.LogMethod = queryTotals{}
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
	for i, r := range rounds {
		if r.LogMethod.Results == 0 {
			t.Errorf("round %d: the log method answers nothing", i)
		}
	}
}
