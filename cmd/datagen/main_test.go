package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"prtree/internal/dataset"
	"prtree/internal/storage"
)

// childEnv makes the test binary run the real main instead of the tests,
// so the command under test is this package's code with no `go build`.
const childEnv = "DATAGEN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// datagen runs main in a child process with args, its standard output
// sent to stdout, and returns its exit code and what it printed to
// standard error.
func datagen(t *testing.T, stdout io.Writer, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("datagen %s: %v", strings.Join(args, " "), err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestWesternRecords: -kind western writes dataset.Western at the default
// seed, record for record, in the format prtool reads.
func TestWesternRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "western.bin")
	if code, stderr := datagen(t, nil, "-kind", "western", "-n", "30000", "-out", path); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := dataset.Western(30000, 2004)
	if len(got) != len(want)*storage.ItemSize {
		t.Fatalf("wrote %d bytes; want %d records of %d", len(got), len(want), storage.ItemSize)
	}
	for i, it := range want {
		if rec := storage.DecodeItem(got[i*storage.ItemSize:]); rec != it {
			t.Fatalf("record %d is %+v; want %+v", i, rec, it)
		}
	}
}

// TestFailedWriteExitsOne: a write that fails — here to a full device,
// which reports it only when the buffered records are flushed — exits 1,
// to a file and to standard output, in either format.
func TestFailedWriteExitsOne(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	for _, c := range []struct {
		stdout io.Writer
		args   []string
	}{
		{nil, []string{"-kind", "western", "-n", "10", "-out", "/dev/full"}},
		{full, []string{"-n", "10", "-format", "csv"}},
	} {
		if code, stderr := datagen(t, c.stdout, c.args...); code != 1 {
			t.Errorf("datagen %s to a full device: exit %d; want 1 (stderr %q)", strings.Join(c.args, " "), code, stderr)
		}
	}
}
