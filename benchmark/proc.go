package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// procSet owns everything a run must not leave behind: child servers and
// temporary directories. stopAll is safe to call from any exit path, more
// than once.
type procSet struct {
	mu      sync.Mutex
	servers []*server
	dirs    []string
}

func (p *procSet) stopAll() {
	p.mu.Lock()
	servers, dirs := p.servers, p.dirs
	p.servers, p.dirs = nil, nil
	p.mu.Unlock()
	for _, s := range servers {
		s.stop()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// tempDir makes a directory under .bench_build that stopAll removes.
func (e *env) tempDir() (string, error) {
	dir, err := os.MkdirTemp(e.build, "run-")
	if err != nil {
		return "", err
	}
	e.procs.mu.Lock()
	e.procs.dirs = append(e.procs.dirs, dir)
	e.procs.mu.Unlock()
	return dir, nil
}

// tpserver builds cmd/tpserver from the tree (a no-op when the build cache
// is warm) and returns the binary's path.
func (e *env) tpserver() (string, error) {
	bin := filepath.Join(e.build, "tpserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tpserver")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/tpserver: %v\n%s", err, out)
	}
	return bin, nil
}

// tail keeps the last bytes a server wrote to stderr, to attach to a failure.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailMax = 16 << 10

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailMax {
		t.buf = t.buf[len(t.buf)-tailMax:]
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// server is one child tpserver.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	started time.Time
	stderr  tail
	exited  chan struct{} // closed once Wait has returned
	once    sync.Once
	peakMiB float64 // VmHWM read just before the process was stopped
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin on a free port with the given flags.
func (e *env) startServer(bin string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append(args, "-listen", addr)...)
	s.cmd.Stderr = &s.stderr
	// Should the benchmark be killed outright, the kernel takes the server
	// down with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	e.procs.mu.Lock()
	e.procs.servers = append(e.procs.servers, s)
	e.procs.mu.Unlock()
	return s, nil
}

// waitReady polls /readyz until it answers 200 and returns the time since
// the process was started. A server that exits or stays unready fails with
// its stderr attached.
func (s *server) waitReady(client *http.Client, timeout time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.started), nil
			}
		}
		select {
		case <-s.exited:
			return 0, fmt.Errorf("tpserver exited before it was ready; stderr:\n%s", s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("tpserver not ready after %v; stderr:\n%s", timeout, s.stderr.String())
		}
	}
}

// stop records the server's peak resident set, asks it to shut down, and
// waits until it has ended, killing it if it overstays.
func (s *server) stop() {
	s.once.Do(func() {
		select {
		case <-s.exited:
			return
		default:
		}
		s.peakMiB, _ = peakRSSMiB(s.cmd.Process.Pid)
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(5 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
	})
}

// failure wraps err with the server's recent stderr.
func (s *server) failure(err error) error {
	return fmt.Errorf("%w; tpserver stderr:\n%s", err, s.stderr.String())
}

// newClient returns an HTTP client that keeps up to conns connections to a
// host open, so a worker's requests reuse one connection.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        4 * conns,
			MaxIdleConnsPerHost: conns,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
	}
}
