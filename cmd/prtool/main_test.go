package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"prtree"
	"prtree/internal/dataset"
	"prtree/internal/storage"
	"prtree/internal/zoo"
)

// childEnv makes the test binary run the real main instead of the tests,
// so each command under test is this package's code with no `go build`.
const childEnv = "PRTOOL_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// prtool runs main in a child process with args and returns what it
// printed, failing the test unless it exits 0.
func prtool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("prtool %s: %v\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), err, out, stderr.String())
	}
	return string(out)
}

// westernFile writes datagen's `-kind western -n 30000` records to a file
// of their own and returns its path.
func westernFile(t *testing.T) string {
	t.Helper()
	items := dataset.Western(30000, 2004)
	buf := make([]byte, len(items)*storage.ItemSize)
	for i, it := range items {
		storage.EncodeItem(buf[i*storage.ItemSize:], it)
	}
	path := filepath.Join(t.TempDir(), "western.bin")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCreateLeavesOnlyIndexAndLog: every loader builds in memory and
// writes tree pages only, so a created index leaves itself and its log
// behind and no other file.
func TestCreateLeavesOnlyIndexAndLog(t *testing.T) {
	in := westernFile(t)
	for _, loader := range []string{"PR", "H", "H4", "TGS"} {
		dir := t.TempDir()
		prtool(t, "-in", in, "-index", filepath.Join(dir, "w.pr"), "-loader", loader, "create")
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if want := []string{"w.pr", "w.pr.wal"}; !slices.Equal(names, want) {
			t.Errorf("create -loader %s left %q; want %q", loader, names, want)
		}
	}
}

// TestShardWritesManifest: shard leaves the manifest prtreeserve serves
// from.
func TestShardWritesManifest(t *testing.T) {
	out := filepath.Join(t.TempDir(), "shards")
	prtool(t, "-in", westernFile(t), "-out", out, "-shards", "4", "shard")
	if st, err := os.Stat(filepath.Join(out, "manifest.json")); err != nil || st.Size() == 0 {
		t.Fatalf("shard wrote no manifest: %v", err)
	}
}

// TestCacheFlag: -cache N bounds the page cache at N pages; 0 or negative
// leaves it unbounded.
func TestCacheFlag(t *testing.T) {
	in := westernFile(t)
	for _, c := range []struct{ flag, line string }{
		{"64", `capacity=64 pages`},
		{"0", `capacity=unbounded`},
		{"-1", `capacity=unbounded`},
	} {
		out := prtool(t, "-in", in, "-cache", c.flag, "stats")
		if !regexp.MustCompile(`(?m)^cache: +` + c.line + `$`).MatchString(out) {
			t.Errorf("-cache %s stats: no %q line in\n%s", c.flag, c.line, out)
		}
	}
}

// TestCompactSettles: compact merges the buffer and every level of a
// dynamic index into one level, and the Sync settles the file, so every
// page it allocates is in use. A second run starts from that one level
// and ends as the first did.
func TestCompactSettles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dyn.pr")
	// Small pages make a small base, so a few hundred commits fill two
	// levels and a buffer.
	d, err := prtree.CreateDynamic(path, &prtree.Options{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	items := zoo.Uniform(700, 0.002, 99)
	for _, it := range items {
		if err := d.InsertE(it); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range items[:70] {
		if _, err := d.DeleteE(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	first := prtool(t, "-index", path, "compact")
	if before := lines(first, "before:   level"); len(before) < 2 {
		t.Fatalf("set-up: want at least two occupied levels before compact\n%s", first)
	}
	after := lines(first, "after:")
	if n := len(lines(first, "after:   level")); n != 1 {
		t.Fatalf("compact left %d occupied levels; want 1\n%s", n, first)
	}
	settled := regexp.MustCompile(`^after: pages (\d+) in use of (\d+) allocated$`)
	if m := settled.FindStringSubmatch(after[len(after)-1]); m == nil || m[1] != m[2] {
		t.Fatalf("compact did not settle the file\n%s", first)
	}

	second := prtool(t, "-index", path, "compact")
	var want []string
	for _, l := range after {
		want = append(want, "before:"+strings.TrimPrefix(l, "after:"))
	}
	if got := lines(second, "before:"); !slices.Equal(got, want) {
		t.Errorf("second compact starts from\n%s\nwant the first's end\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if got := lines(second, "after:"); !slices.Equal(got, after) {
		t.Errorf("second compact ends at\n%s\nwant the first's end\n%s", strings.Join(got, "\n"), strings.Join(after, "\n"))
	}
}

// lines returns the lines of out that begin with prefix.
func lines(out, prefix string) []string {
	var ls []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			ls = append(ls, l)
		}
	}
	return ls
}
