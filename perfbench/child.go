package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one tcserve process on a loopback port.
type child struct {
	cmd  *exec.Cmd
	url  string
	log  *lockedBuffer
	done chan struct{} // closed once the process has been reaped
}

// lockedBuffer collects a child's log output; exec copies into it from
// its own goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) tail() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := strings.TrimSpace(b.buf.String())
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

var (
	liveMu   sync.Mutex
	children = map[*child]struct{}{}
)

// startChild spawns tcserve with extra flags on a free loopback port
// and returns once /healthz answers. A port taken between probing and
// binding makes the child exit at once; that is retried.
func startChild(bin string, flags ...string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		c, err := spawn(bin, port, flags)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("probe free port: %w", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port, nil
}

func spawn(bin string, port int, flags []string) (*child, error) {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	logs := &lockedBuffer{}
	cmd.Stdout, cmd.Stderr = logs, logs
	// The kernel kills the child if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tcserve: %w", err)
	}
	c := &child{cmd: cmd, url: "http://" + addr, log: logs, done: make(chan struct{})}
	liveMu.Lock()
	children[c] = struct{}{}
	liveMu.Unlock()
	go func() {
		_ = cmd.Wait()
		close(c.done)
	}()

	// Probes do not keep connections: the child they reach will be gone.
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			c.forget()
			return nil, fmt.Errorf("tcserve exited before serving: %s", logs.tail())
		default:
		}
		resp, err := probe.Get(c.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.stop()
	return nil, fmt.Errorf("tcserve not ready on %s after 60s: %s", addr, logs.tail())
}

// peakRSSMB reads the child's VmHWM (peak resident set) in MB.
func (c *child) peakRSSMB() (float64, error) {
	return vmHWM(c.cmd.Process.Pid)
}

func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stop asks the child to drain (SIGTERM), kills it if that takes more
// than ten seconds, and waits until it has been reaped.
func (c *child) stop() {
	select {
	case <-c.done:
	default:
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-c.done:
		case <-time.After(10 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.done
		}
	}
	c.forget()
}

func (c *child) forget() {
	liveMu.Lock()
	delete(children, c)
	liveMu.Unlock()
}

// stopAllChildren stops every child still running.
func stopAllChildren() {
	liveMu.Lock()
	live := make([]*child, 0, len(children))
	for c := range children {
		live = append(live, c)
	}
	liveMu.Unlock()
	for _, c := range live {
		c.stop()
	}
}

// newClient returns a client holding one persistent connection, as one
// synchronous caller would.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
}

// post sends one request and returns the body of a 200 reply.
func post(client *http.Client, url, contentType string, body []byte) ([]byte, error) {
	resp, err := client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{code: resp.StatusCode, body: string(data)}
	}
	return data, nil
}

// serveStats is the part of /v1/stats the benchmark reads.
type serveStats struct {
	Batches    int64 `json:"batches"`
	Samples    int64 `json:"samples"`
	Singletons int64 `json:"singletons"`
	Rejected   int64 `json:"rejected"`
}
