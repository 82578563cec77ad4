package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemonProcs is the GOMAXPROCS oniond runs under: the two load
// connections never outnumber it, and it never outnumbers this box.
const daemonProcs = 2

// buildDaemon compiles the real cmd/oniond of the checkout rooted at
// root. The go tool skips the link when the binary is already current,
// so only the first run of a checkout pays for it.
func buildDaemon(ctx context.Context, root, buildDir string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "oniond")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "oniond"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/oniond")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/oniond: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one oniond child process on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	spawned time.Time
	exited  chan struct{} // closed once the process has been reaped
	control *http.Client  // set-up and bookkeeping calls, never the timed ones
}

// startDaemon launches oniond with the Fig. 2 world and the given extra
// flags, in its own process group, with its temp files (spill runs)
// kept under dir. The daemon is told nothing about the seed or the
// workload: it sees flags and requests only.
func startDaemon(bin, dir string, flags ...string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logPath := filepath.Join(dir, "oniond.log")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-fig2", "-pprof", "-addr", addr}, flags...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(daemonProcs), "TMPDIR="+dir)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	d := &daemon{
		cmd:     cmd,
		base:    "http://" + addr,
		logPath: logPath,
		exited:  make(chan struct{}),
		control: &http.Client{Timeout: 30 * time.Second},
	}
	d.spawned = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting oniond: %w", err)
	}
	go func() {
		_ = cmd.Wait() // "signal: killed" is how every run ends
		close(d.exited)
	}()
	return d, nil
}

// kill ends the daemon's whole process group at once — the crash the
// churn workload recovers from, and the way every run ends — and waits
// until it is gone.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	<-d.exited
	d.control.CloseIdleConnections()
}

// logTail returns the end of the daemon's log, for error reports.
func (d *daemon) logTail() string {
	body, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	if len(body) > 2048 {
		body = body[len(body)-2048:]
	}
	return string(body)
}

// waitReady polls /readyz until the daemon answers 200.
func (d *daemon) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		resp, err := d.control.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-d.exited:
			return fmt.Errorf("oniond exited before it was ready\n%s", d.logTail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("oniond not ready after a minute\n%s", d.logTail())
		}
	}
}

// call makes one untimed control request and decodes a JSON reply into
// out (when out is non-nil). Anything but 200 is an error.
func (d *daemon) call(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.control.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(payload))
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = payload
		return nil
	}
	return json.Unmarshal(payload, out)
}

// mutate posts one batch and insists that every fact landed.
func (d *daemon) mutate(ctx context.Context, b batch) error {
	var reply struct {
		Added int `json:"added"`
	}
	if err := d.call(ctx, http.MethodPost, "/mutate", b.body, &reply); err != nil {
		return err
	}
	if reply.Added != len(b.facts) {
		return fmt.Errorf("/mutate acknowledged %d of %d facts", reply.Added, len(b.facts))
	}
	return nil
}

// serveStats reads the serving counters of /stats as a generic map, so
// a counter the daemon renames is a missing metric, not a build break.
func (d *daemon) serveStats(ctx context.Context) (map[string]float64, error) {
	var reply struct {
		Serve map[string]float64 `json:"serve"`
	}
	err := d.call(ctx, http.MethodGet, "/stats", nil, &reply)
	return reply.Serve, err
}

var memStatLine = regexp.MustCompile(`(?m)^# (Mallocs|TotalAlloc) = (\d+)$`)

// heapStats reads the runtime's cumulative allocation counters from the
// text heap profile. It stops the world, so it brackets a window and
// never runs inside one.
func (d *daemon) heapStats(ctx context.Context) (mallocs, allocated float64, err error) {
	var body []byte
	if err := d.call(ctx, http.MethodGet, "/debug/pprof/heap?debug=1", nil, &body); err != nil {
		return 0, 0, err
	}
	for _, m := range memStatLine.FindAllSubmatch(body, -1) {
		v, _ := strconv.ParseFloat(string(m[2]), 64)
		if string(m[1]) == "Mallocs" {
			mallocs = v
		} else {
			allocated = v
		}
	}
	if mallocs == 0 {
		return 0, 0, errors.New("heap profile carries no Mallocs line")
	}
	return mallocs, allocated, nil
}

// clockTick is the kernel's USER_HZ, in which /proc reports CPU time;
// it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime returns the daemon's user+system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after it.
	i := bytes.LastIndexByte(stat, ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", stat)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", stat)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

var hwmLine = regexp.MustCompile(`(?m)^VmHWM:\s+(\d+) kB$`)

// peakRSS returns the daemon's resident-set high-water mark in MB.
func (d *daemon) peakRSS() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	m := hwmLine.FindSubmatch(status)
	if m == nil {
		return 0, errors.New("/proc status carries no VmHWM line")
	}
	kb, _ := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024, nil
}

// dirSize sums the regular files under root.
func dirSize(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
