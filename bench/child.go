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
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"prtree/internal/serve"
)

// buildServer compiles cmd/prtreeserve into dir. Compile time belongs to
// the toolchain, not the program, so no metric includes it.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "prtreeserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/prtreeserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building prtreeserve: %v\n%s", err, out)
	}
	return bin, nil
}

// signalGrace is how long a child must have been healthy before it is sent
// SIGTERM.
const signalGrace = 100 * time.Millisecond

// server is a running prtreeserve child.
type server struct {
	cmd      *exec.Cmd
	binary   string    // binary-protocol address
	web      string    // HTTP address
	healthy  time.Time // when /healthz first said ok
	exited   chan struct{}
	exitErr  error
	mu       sync.Mutex
	stdout   bytes.Buffer
	stderr   bytes.Buffer
	lineRead chan string
}

// startServer launches the child on ephemeral ports, parses the addresses
// it prints and waits until /healthz says ok. If the child exits first the
// error carries its stderr.
func startServer(bin, shardDir string) (*server, error) {
	s := &server{exited: make(chan struct{}), lineRead: make(chan string, 16)}
	s.cmd = exec.Command(bin, "-shards", shardDir, "-bind", "127.0.0.1:0", "-http", "127.0.0.1:0")
	// The child must not outlive the benchmark, whatever kills it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.cmd.Stderr = &lockedWriter{mu: &s.mu, w: &s.stderr}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting prtreeserve: %w", err)
	}
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.stdout.WriteString(line + "\n")
			s.mu.Unlock()
			select {
			case s.lineRead <- line:
			default: // nobody is waiting for addresses any more
			}
		}
		s.exitErr = s.cmd.Wait()
		close(s.exited)
	}()

	deadline := time.After(30 * time.Second)
	for s.binary == "" {
		select {
		case line := <-s.lineRead:
			// "prtreeserve: binary 127.0.0.1:41233  http 127.0.0.1:38101"
			f := strings.Fields(line)
			if len(f) == 5 && f[1] == "binary" && f[3] == "http" {
				s.binary, s.web = f[2], f[4]
			}
		case <-s.exited:
			return nil, fmt.Errorf("prtreeserve exited before serving: %v\n%s", s.exitErr, s.stderrText())
		case <-deadline:
			s.kill()
			return nil, fmt.Errorf("prtreeserve printed no addresses within 30s\n%s", s.stderrText())
		}
	}
	for {
		if body, err := s.get("/healthz"); err == nil && strings.Contains(string(body), "ok") {
			s.healthy = time.Now()
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("prtreeserve exited before healthy: %v\n%s", s.exitErr, s.stderrText())
		case <-deadline:
			s.kill()
			return nil, fmt.Errorf("prtreeserve not healthy within 30s\n%s", s.stderrText())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func (s *server) stderrText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stderr.String()
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := http.Get("http://" + s.web + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

func (s *server) statsz() (serve.Statsz, error) {
	var st serve.Statsz
	body, err := s.get("/statsz")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decoding /statsz: %w", err)
	}
	return st, nil
}

// peakRSSMB reads the child's high-water resident set.
func (s *server) peakRSSMB() (float64, error) { return peakRSSMB(s.cmd.Process.Pid) }

// peakRSSMB reads VmHWM of a process from /proc.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS makes VmHWM of this process start over, so that a workload
// run after another in one invocation reports its own peak. Where the
// kernel refuses, the peak stays cumulative.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// stop drains the child with SIGTERM and requires its clean-drain marker.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return fmt.Errorf("prtreeserve exited early: %v\n%s", s.exitErr, s.stderrText())
	default:
	}
	// prtreeserve installs its signal handler after it answers /healthz; a
	// SIGTERM in that gap kills it undrained. Only the discarded set-up
	// repeats are stopped soon enough to hit it.
	if young := signalGrace - time.Since(s.healthy); young > 0 {
		time.Sleep(young)
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("prtreeserve did not drain within 30s")
	}
	s.mu.Lock()
	out := s.stdout.String()
	s.mu.Unlock()
	if s.exitErr != nil || !strings.Contains(out, "drained cleanly") {
		return fmt.Errorf("prtreeserve did not drain cleanly: %v\n%s%s", s.exitErr, out, s.stderrText())
	}
	return nil
}

// kill ends the child at once and waits for it; for error paths.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}
