package experiments

import (
	"strings"
	"testing"
)

func TestFaultSweepRecovery(t *testing.T) {
	tbl := FaultSweep(Config{Scale: 0.02, Seed: 12})
	if tbl.ID != "faults" || len(tbl.Rows) != 4 {
		t.Fatalf("table %q has %d rows, want faults/4", tbl.ID, len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		mode, acked, recovered, reopen := row[0], row[2], row[3], row[4]
		if strings.HasPrefix(reopen, "FAILED") {
			t.Errorf("%s: reopen failed: %s", mode, reopen)
			continue
		}
		if recovered == "-" {
			t.Errorf("%s: recovered count missing (row %v)", mode, row)
			continue
		}
		switch mode {
		case "error", "crash":
			// Honest failure modes: recovery restores exactly the last
			// acked rebuild, and the recovered index is sound.
			if recovered != acked {
				t.Errorf("%s: recovered rebuild %s, acked %s", mode, recovered, acked)
			}
			if validate := row[5]; validate != "ok" {
				t.Errorf("%s: recovered tree failed validation: %s", mode, validate)
			}
			if scrub := row[6]; scrub != "ok" {
				t.Errorf("%s: recovered file failed scrub: %s", mode, scrub)
			}
		case "stop":
			// The treacherous disk acks commits it dropped; recovery can
			// only restore what actually reached the log.
			if atoiCell(t, recovered) > atoiCell(t, acked) {
				t.Errorf("stop: recovered %s > acked %s", recovered, acked)
			}
			if scrub := row[6]; scrub != "ok" {
				t.Errorf("stop: recovered file failed scrub: %s", scrub)
			}
		case "torn":
			// A torn page is committed with a checksum that covers what was
			// written, so the scrub stays clean by design; whether structural
			// validation flags it depends on whether a later full write healed
			// the page, so the row only has to be well-formed.
		}
	}
}

func atoiCell(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, r := range s {
		if r == ',' {
			continue
		}
		if r < '0' || r > '9' {
			t.Fatalf("bad integer cell %q", s)
		}
		n = n*10 + int(r-'0')
	}
	return n
}
