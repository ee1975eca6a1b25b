package main

// The system under test as child processes: building chainlogd and chainlog
// from the working tree, starting and stopping the daemon, and reading what
// the operating system and /metrics say about it.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workspace is where the benchmark builds and writes: .bench_build under the
// checkout's root, which .gitignore names.
type workspace struct {
	root string // the checkout
	bin  string // built binaries
	tmp  string // this run's inputs, snapshots and WAL directories
	out  string // traces
}

// findRoot walks up from the working directory to the checkout's root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "chainlogd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout with BENCHMARK.json and cmd/chainlogd above the working directory")
		}
		dir = parent
	}
}

func newWorkspace(out string) (*workspace, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	ws := &workspace{root: root, bin: filepath.Join(build, "bin"), out: out}
	if ws.out == "" {
		ws.out = filepath.Join(build, "out")
	}
	for _, d := range []string{ws.bin, ws.out, filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if ws.tmp, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	return ws, nil
}

func (ws *workspace) cleanup() { os.RemoveAll(ws.tmp) }

// build compiles the daemon and the CLI from the working tree.
func (ws *workspace) build() error {
	cmd := exec.Command("go", "build", "-o", ws.bin+string(filepath.Separator), "./cmd/chainlogd", "./cmd/chainlog")
	cmd.Dir = ws.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// ingest runs `chainlog ingest` on a CSV file.
func (ws *workspace) ingest(csvPath, rel, snapPath string) error {
	cmd := exec.Command(filepath.Join(ws.bin, "chainlog"), "ingest", "-q", "-csv", csvPath, "-rel", rel, "-out", snapPath)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("chainlog ingest: %w\n%s", err, out)
	}
	return nil
}

// daemon is one running chainlogd.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{} // closed once the process has ended
	err  error         // what Wait returned; read after done
}

// freeAddr asks the kernel for an unused loopback port. The daemon cannot
// report a port it chose itself, so the port is released and handed over; a
// daemon that loses that race exits and start reports it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start executes chainlogd and returns as soon as the process exists; the
// caller polls for readiness with real requests, because time to the first
// correct answer is what set-up is.
func (ws *workspace) start(logPath string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(ws.bin, "chainlogd"), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, log: logf, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// exited reports whether the process has ended, with its log for the error.
func (d *daemon) exited() error {
	select {
	case <-d.done:
		logged, _ := os.ReadFile(d.log.Name())
		return fmt.Errorf("chainlogd exited early (%v):\n%s", d.err, logged)
	default:
		return nil
	}
}

// stop sends SIGTERM and waits for the drain; a daemon still running after
// ten seconds is killed. It returns once the process has ended.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return d.err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("chainlogd did not drain within 10s and was killed")
	}
}

// cpu is the user plus system time the daemon has consumed. /proc counts it
// in clock ticks, which Linux reports at 100 per second whatever the kernel's
// own rate.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from the closing parenthesis. utime and stime are fields 14 and
	// 15, so 11 and 12 after the state field that follows the name.
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", raw)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times: %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// peakRSS is the daemon's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads /metrics into a map from the full series name, labels
// included, to its value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	series := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			series[line[:i]] = v
		}
	}
	return series, sc.Err()
}
