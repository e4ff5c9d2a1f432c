//go:build unix

package main

import (
	"bufio"
	"bytes"
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
	"prtree/internal/serve"
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

// TestSignalRightAfterHealthy: the first successful /healthz probe is the
// earliest moment an orchestrator may decide to stop the server again. A
// SIGTERM sent at that moment must be drained, not kill the process: the
// handler is installed before the listeners that answer the probe exist.
func TestSignalRightAfterHealthy(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := serve.Build(dir, dataset.Western(2000, 1), serve.BuildOptions{Shards: 2, Loader: prtree.PR}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		cmd := exec.Command(os.Args[0], "-shards", dir, "-bind", "127.0.0.1:0", "-http", "127.0.0.1:0")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		lines := bufio.NewReader(stdout)
		var log strings.Builder
		httpAddr := ""
		for httpAddr == "" {
			line, err := lines.ReadString('\n')
			log.WriteString(line)
			if i := strings.Index(line, "  http "); i >= 0 {
				httpAddr = strings.TrimSpace(line[i+len("  http "):])
			}
			if err != nil {
				break
			}
		}
		if httpAddr == "" {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("round %d: server never printed its addresses\nstdout:\n%sstderr:\n%s", round, log.String(), stderr.String())
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get("http://" + httpAddr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("round %d: never healthy: %v", round, err)
			}
			time.Sleep(time.Millisecond)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		rest, _ := io.ReadAll(lines)
		log.Write(rest)
		if err := cmd.Wait(); err != nil {
			t.Fatalf("round %d: server exited with %v after SIGTERM\nstdout:\n%sstderr:\n%s", round, err, log.String(), stderr.String())
		}
		if !strings.Contains(log.String(), "drained cleanly") {
			t.Fatalf("round %d: no drain marker\nstdout:\n%s", round, log.String())
		}
	}
}
