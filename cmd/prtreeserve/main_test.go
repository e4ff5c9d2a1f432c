//go:build unix

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"prtree"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/serve"
	"prtree/internal/workload"
)

// childEnv makes the test binary run the real main instead of the tests,
// so the server under test is this package's code with no `go build`.
const childEnv = "PRTREESERVE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// child is a prtreeserve process started by startServer.
type child struct {
	cmd              *exec.Cmd
	stdout           *bufio.Reader
	log              strings.Builder // stdout read so far
	stderr           bytes.Buffer
	binAddr, httpURL string
}

// buildShards shards items into a fresh directory.
func buildShards(t *testing.T, items []geom.Item, shards int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := serve.Build(dir, items, serve.BuildOptions{Shards: shards, Loader: prtree.PR}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// startServer runs main in a child process serving dir on loopback ports
// of its choosing, with extra flags appended, and reads the addresses it
// prints. The child is killed at the end of the test unless it has exited.
func startServer(t *testing.T, dir string, extra ...string) *child {
	t.Helper()
	args := append([]string{"-shards", dir, "-bind", "127.0.0.1:0", "-http", "127.0.0.1:0"}, extra...)
	c := &child{cmd: exec.Command(os.Args[0], args...)}
	c.cmd.Env = append(os.Environ(), childEnv+"=1")
	c.cmd.Stderr = &c.stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if c.cmd.ProcessState == nil {
			c.cmd.Process.Kill()
			c.cmd.Wait()
		}
	})
	c.stdout = bufio.NewReader(stdout)
	for {
		line, err := c.stdout.ReadString('\n')
		c.log.WriteString(line)
		if rest, ok := strings.CutPrefix(line, "prtreeserve: binary "); ok {
			bin, web, _ := strings.Cut(strings.TrimSpace(rest), "  http ")
			c.binAddr, c.httpURL = bin, "http://"+web
			return c
		}
		if err != nil {
			t.Fatalf("server never printed its addresses\n%s", c.output())
		}
	}
}

func (c *child) output() string {
	return fmt.Sprintf("stdout:\n%sstderr:\n%s", c.log.String(), c.stderr.String())
}

// getJSON fetches path, requires a 200 and decodes the body into v.
func (c *child) getJSON(t *testing.T, path string, v any) {
	t.Helper()
	resp, err := http.Get(c.httpURL + path)
	if err != nil {
		t.Fatalf("GET %s: %v\n%s", path, err, c.output())
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v: %s", path, resp.StatusCode, err, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: malformed JSON: %v\n%s", path, err, body)
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func (c *child) waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: timed out\n%s", what, c.output())
		}
	}
}

// healthy reports whether /healthz answers 200 "ok".
func (c *child) healthy() bool {
	resp, err := http.Get(c.httpURL + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode == http.StatusOK && strings.TrimSpace(string(body)) == "ok"
}

// drain sends SIGTERM and requires a clean exit that says so.
func (c *child) drain(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(c.stdout)
	c.log.Write(rest)
	if err := c.cmd.Wait(); err != nil {
		t.Fatalf("server exited with %v after SIGTERM\n%s", err, c.output())
	}
	if !strings.Contains(c.log.String(), "drained cleanly") {
		t.Fatalf("no drain marker\n%s", c.output())
	}
}

// TestSignalRightAfterHealthy: the first successful /healthz probe is the
// earliest moment an orchestrator may decide to stop the server again. A
// SIGTERM sent at that moment must be drained, not kill the process: the
// handler is installed before the listeners that answer the probe exist.
func TestSignalRightAfterHealthy(t *testing.T) {
	dir := buildShards(t, dataset.Western(2000, 1), 2)
	for round := 0; round < 5; round++ {
		c := startServer(t, dir)
		c.waitFor(t, fmt.Sprintf("round %d: healthy", round), c.healthy)
		c.drain(t)
	}
}

// TestServeEndToEnd drives the real server: health on the admin port, a
// window with a limit, a nearest query and 32 windows checked against a
// scan of the input over the binary protocol, /statsz, then a clean drain.
func TestServeEndToEnd(t *testing.T) {
	items := dataset.Western(4000, 3)
	c := startServer(t, buildShards(t, items, 4), "-cache", "4096", "-tenantcap", "256", "-maxdeadline", "30s")
	c.waitFor(t, "healthy", c.healthy)

	cl, err := serve.Dial(c.binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	w := geom.NewRect(0.4, 0.4, 0.6, 0.6)
	win, err := cl.Do(serve.Request{Op: serve.OpWindow, Limit: 5, Rect: w})
	if err != nil {
		t.Fatal(err)
	}
	if want := min(5, countWindow(items, w)); len(win.Sets) != 1 || len(win.Sets[0]) != want || want == 0 {
		t.Fatalf("window limit=5: %d sets %v, want one of %d items", len(win.Sets), win.Sets, want)
	}
	nn, err := cl.Nearest(0.5, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 3 || nn[0].Dist2 > nn[1].Dist2 || nn[1].Dist2 > nn[2].Dist2 {
		t.Fatalf("nearest k=3: %+v", nn)
	}
	for i, r := range workload.Squares(geom.ItemsMBR(items), 0.01, 32, 77) {
		got, err := cl.Window(r, 0)
		if err != nil {
			t.Fatalf("binary window %d: %v", i, err)
		}
		if want := countWindow(items, r); len(got) != want {
			t.Fatalf("binary window %d: %d items, want %d", i, len(got), want)
		}
	}

	var sz serve.Statsz
	c.getJSON(t, "/statsz", &sz)
	if sz.Shards != 4 || sz.Items != len(items) || sz.Served < 34 || sz.Errors != 0 {
		t.Fatalf("statsz: shards %d items %d served %d errors %d", sz.Shards, sz.Items, sz.Served, sz.Errors)
	}
	c.drain(t)
}

// countWindow is the oracle: how many items intersect w.
func countWindow(items []geom.Item, w geom.Rect) int {
	n := 0
	for _, it := range items {
		if it.Rect.Intersects(w) {
			n++
		}
	}
	return n
}
