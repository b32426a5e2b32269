package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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

// healthPoll is how often a booting daemon is polled; set-up time is
// measured to this resolution.
const healthPoll = time.Millisecond

// buildDir is where binaries, caches and daemon logs go: inside the
// checkout, named by .gitignore.
const buildDir = ".bench_build"

// repoRoot finds the checkout: the nearest ancestor of the working
// directory holding cmd/ncqd.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ncqd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/ncqd above the working directory: run from inside a checkout")
		}
		dir = parent
	}
}

// buildNcqd compiles ./cmd/ncqd from the checkout's source.
func buildNcqd(ctx context.Context, root string) (string, error) {
	out := filepath.Join(root, buildDir, "ncqd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/ncqd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ncqd: %v\n%s", err, msg)
	}
	return out, nil
}

// daemon is one ncqd child process.
type daemon struct {
	name  string
	cmd   *exec.Cmd
	log   string // stderr file
	url   string // serving listener
	pprof string // -pprof-addr listener
}

var listenRE = regexp.MustCompile(`msg="?(pprof listening|listening)"? .*addr=(\S+)`)

// startDaemon spawns ncqd on ephemeral ports with default settings
// plus -pprof-addr, and returns once both listeners are logged and
// /v1/healthz answers. Its stderr goes to a file so that draining the
// log costs the load generator nothing.
func startDaemon(ctx context.Context, bin, logDir, name string, args ...string) (*daemon, error) {
	d := &daemon{name: name, log: filepath.Join(logDir, name+".log")}
	logFile, err := os.Create(d.log)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	args = append([]string{"-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0", "-node-name", name}, args...)
	d.cmd = exec.CommandContext(ctx, bin, args...) // a cancelled run takes its daemons with it
	d.cmd.Stderr = logFile
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	if err := d.awaitReady(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) awaitReady(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for d.url == "" || d.pprof == "" {
		if time.Now().After(deadline) || ctx.Err() != nil {
			logged, _ := os.ReadFile(d.log)
			return fmt.Errorf("%s did not report its listeners:\n%s", d.name, logged)
		}
		logged, err := os.ReadFile(d.log)
		if err != nil {
			return err
		}
		for _, m := range listenRE.FindAllSubmatch(logged, -1) {
			if string(m[1]) == "listening" {
				d.url = "http://" + string(m[2])
			} else {
				d.pprof = "http://" + string(m[2])
			}
		}
		if d.url == "" || d.pprof == "" {
			time.Sleep(healthPoll)
		}
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("%s never became healthy: %v", d.name, err)
		}
		time.Sleep(healthPoll)
	}
}

// stop terminates the child and waits until it has exited.
func (d *daemon) stop() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // exit status of a terminated child is not interesting
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// cpuSeconds is the child's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) { return procCPUSeconds(d.cmd.Process.Pid) }

// peakRSSBytes is the child's VmHWM.
func (d *daemon) peakRSSBytes() (float64, error) { return procPeakRSSBytes(d.cmd.Process.Pid) }

func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, 12th and 13th after ") ".
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	const clockTicks = 100 // USER_HZ on every Linux this runs on
	return (utime + stime) / clockTicks, nil
}

func procPeakRSSBytes(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

var totalAllocRE = regexp.MustCompile(`(?m)^# TotalAlloc = (\d+)`)

// totalAllocBytes reads runtime.MemStats.TotalAlloc from the child's
// pprof listener.
func (d *daemon) totalAllocBytes(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.pprof+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	m := totalAllocRE.FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("%s: no TotalAlloc in heap profile", d.name)
	}
	return strconv.ParseFloat(string(m[1]), 64)
}

// hostSample is a reading of the guest's CPU accounting, for the
// per-round host.steal_share / host.loadavg diagnostics.
type hostSample struct {
	steal, total float64
}

func readHost() hostSample {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostSample{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	var s hostSample
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue // "cpu"
		}
		v, _ := strconv.ParseFloat(f, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal
			s.total += v
		}
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

func stealShare(a, b hostSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

func loadAvg() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f, _, _ := strings.Cut(string(raw), " ")
	v, _ := strconv.ParseFloat(f, 64)
	return v
}
