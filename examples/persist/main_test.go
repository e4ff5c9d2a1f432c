package main

import (
	"os"
	"os/exec"
	"testing"
)

// childEnv makes the test binary run the real main instead of the tests:
// the example stops with log.Fatal on a failure, which exits the process.
const childEnv = "PERSIST_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestMainRuns: the example runs to completion in a child process whose
// temporary directory, where it puts its index file, is the test's own.
func TestMainRuns(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childEnv+"=1", "TMPDIR="+t.TempDir())
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
}
