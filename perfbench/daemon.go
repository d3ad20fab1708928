package main

import (
	"bufio"
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
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one booted powerbenchd process.
type daemon struct {
	id   string
	url  string
	cmd  *exec.Cmd
	out  *syncBuffer
	done chan error // receives the process's exit once
}

// syncBuffer collects a daemon's combined output for the drain check.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freePorts reserves n loopback ports for a cluster whose members must
// know each other's addresses before they boot.
func freePorts(n int) ([]int, error) {
	var ports []int
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// maxInflight is the daemons' admission capacity, twice the connection
// count. At capacity == connections a closed loop sees rare 429s: the
// daemon frees a computation's admission slot only after it has answered
// the waiting request, so that caller's next request can arrive first.
const maxInflight = 2 * conns

// bootDaemons starts n powerbenchd processes with a fresh WAL and flight
// directory each under dir. With n > 1 they form one sharded cluster with
// ids s0..s(n-1). The daemons are returned once each has printed its
// listening address; readiness is waitReady's job.
func bootDaemons(bin, dir string, n int) ([]*daemon, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	var peers []string
	for i, p := range ports {
		peers = append(peers, fmt.Sprintf("s%d=http://127.0.0.1:%d", i, p))
	}
	var ds []*daemon
	for i, p := range ports {
		id := fmt.Sprintf("s%d", i)
		ddir := filepath.Join(dir, id)
		args := []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", p),
			"-max-inflight", strconv.Itoa(maxInflight),
			"-wal-dir", filepath.Join(ddir, "wal"),
			"-flight-dir", filepath.Join(ddir, "flights"),
		}
		if n > 1 {
			args = append(args, "-shard-id", id, "-peers", strings.Join(peers, ","))
		}
		d, err := startDaemon(bin, id, args)
		if err != nil {
			stopAll(ds)
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

func startDaemon(bin, id string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// A daemon must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out := &syncBuffer{}
	pr, pw := io.Pipe()
	cmd.Stdout = pw
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", id, err)
	}
	d := &daemon{id: id, cmd: cmd, out: out, done: make(chan error, 1)}
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(out, line)
			if _, u, ok := strings.Cut(line, "listening on "); ok {
				select {
				case urlc <- strings.TrimSpace(u):
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, pr)
	}()
	go func() {
		err := cmd.Wait()
		pw.Close()
		d.done <- err
	}()
	select {
	case d.url = <-urlc:
		return d, nil
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("%s exited during boot: %v\n%s", id, err, out.String())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s printed no listening address within 30s", id)
	}
}

// exited reports whether the process has ended.
func (d *daemon) exited() bool {
	select {
	case err := <-d.done:
		d.done <- err
		return true
	default:
		return false
	}
}

// kill ends the process without a drain and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	err := <-d.done
	d.done <- err
}

// stop sends SIGTERM and checks the daemon drained cleanly: exit code 0
// and its "shut down cleanly" line.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("%s: SIGTERM: %w", d.id, err)
	}
	var err error
	select {
	case err = <-d.done:
		d.done <- err
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("%s did not drain within 30s", d.id)
	}
	if err != nil {
		return fmt.Errorf("%s exited with %v:\n%s", d.id, err, d.out.String())
	}
	if !strings.Contains(d.out.String(), "shut down cleanly") {
		return fmt.Errorf("%s exited without a clean drain:\n%s", d.id, d.out.String())
	}
	return nil
}

// stopAll stops every daemon and returns the first drain failure.
func stopAll(ds []*daemon) error {
	var first error
	for _, d := range ds {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// health is the part of /healthz readiness reads.
type health struct {
	Status string `json:"status"`
	Cache  struct {
		Entries int   `json:"entries"`
		Bytes   int64 `json:"bytes"`
	} `json:"cache"`
	Traces struct {
		Entries int   `json:"entries"`
		Bytes   int64 `json:"bytes"`
	} `json:"traces"`
	Cluster struct {
		Members int `json:"members"`
		Peers   []struct {
			State string `json:"state"`
		} `json:"peers"`
	} `json:"cluster"`
}

func (h *health) peersUp() int {
	up := 0
	for _, p := range h.Cluster.Peers {
		if p.State == "up" {
			up++
		}
	}
	return up
}

func getHealth(c *http.Client, d *daemon) (*health, error) {
	b, status, err := get(c, d.url+"/healthz")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s /healthz: status %d", d.id, status)
	}
	var h health
	if err := json.Unmarshal(b, &h); err != nil {
		return nil, fmt.Errorf("%s /healthz: %w", d.id, err)
	}
	return &h, nil
}

// waitReady returns once every daemon's /healthz says ok and, in a
// cluster, reports all of its peers up: timing before that would turn
// peer reads into local computes.
func waitReady(c *http.Client, ds []*daemon, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, d := range ds {
		for {
			h, err := getHealth(c, d)
			if err == nil && h.Status == "ok" && h.peersUp() == h.Cluster.Members-1 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after %s (last: %v)", d.id, timeout, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

func get(c *http.Client, url string) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

func scrapeMetrics(c *http.Client, ds []*daemon) (scrape, error) {
	var all []scrape
	for _, d := range ds {
		b, status, err := get(c, d.url+"/metrics")
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("%s /metrics: status %d, %v", d.id, status, err)
		}
		all = append(all, parseProm(string(b)))
	}
	return sumScrapes(all...), nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every mainstream Linux build.
const clockTick = 100

// cpuTime is a process's user+sys CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// daemonsCPU sums the daemons' CPU time.
func daemonsCPU(ds []*daemon) (time.Duration, error) {
	var total time.Duration
	for _, d := range ds {
		t, err := cpuTime(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// peakRSS sums the daemons' peak resident memory (VmHWM) in MiB.
func peakRSS(ds []*daemon) (float64, error) {
	var kb float64
	for _, d := range ds {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					return 0, fmt.Errorf("VmHWM of %s: %w", d.id, err)
				}
				kb += v
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM for %s", d.id)
		}
	}
	return kb / 1024, nil
}

// selfCPU is this process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
