package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one coschedd child process, started with its default flags
// apart from a loopback listen address chosen by the kernel.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error
	log  bytes.Buffer
}

// startDaemon execs bin and waits until /healthz answers 200. The
// returned duration runs from exec to that first 200.
func startDaemon(bin, runDir string) (*daemon, time.Duration, error) {
	addrFile := filepath.Join(runDir, "coschedd.addr")
	_ = os.Remove(addrFile) // a stale file would point at a dead daemon
	d := &daemon{done: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	// The daemon must not outlive the benchmark, however it ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting coschedd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	deadline := start.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return nil, 0, fmt.Errorf("coschedd exited during start-up: %v\n%s", err, d.log.String())
		default:
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			resp, err := hc.Get(d.base + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					hc.CloseIdleConnections()
					return d, time.Since(start), nil
				}
			}
		}
		sleep(100 * time.Microsecond)
	}
	d.stop()
	return nil, 0, fmt.Errorf("coschedd did not answer /healthz within 30s\n%s", d.log.String())
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited within 15 s. It returns once the process is gone.
func (d *daemon) stop() error {
	if d.cmd.Process == nil {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.done <- err
		return err
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		err := <-d.done
		d.done <- err
		return errors.New("coschedd did not drain within 15s; killed")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after ")".
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.Join(sc.Err(), errors.New("no VmHWM in /proc status"))
}

// scrape is one /metrics exposition, keyed by the series text before
// the value ("name" or `name{label="v"}`).
type scrape map[string]float64

func (d *daemon) metrics() (scrape, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := scrape{}
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
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is b[k] - a[k] for a counter series.
func delta(a, b scrape, k string) float64 { return b[k] - a[k] }

// memstats is the part of the daemon's /debug/vars the benchmark reads.
type memstats struct {
	GCCPUFraction float64
	HeapInuse     uint64
}

func (d *daemon) memstats() (memstats, error) {
	resp, err := http.Get(d.base + "/debug/vars")
	if err != nil {
		return memstats{}, err
	}
	defer resp.Body.Close()
	var v struct {
		Memstats memstats `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return memstats{}, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return v.Memstats, nil
}
