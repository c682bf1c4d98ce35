package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// The reference host is a 2-vCPU VM on a shared hypervisor. When the
// hypervisor gives the VM's vCPUs to other guests (steal time), both the
// daemon and the generator stop for milliseconds at a time, whatever the
// daemon does. The benchmark reads the steal over its measured phases
// from /proc/stat and prints it in each report, so a run taken on a
// starved host can be told apart from a daemon regression.

// cpuTimes reads the aggregate "cpu" line of /proc/stat and returns the
// total and the steal jiffies.
func cpuTimes() (total, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, err
		}
		if i >= 8 {
			break // guest time is already counted in user time
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// stealMeter measures the share of CPU time stolen between mark and
// share.
type stealMeter struct{ total, steal float64 }

func (m *stealMeter) mark() error {
	var err error
	m.total, m.steal, err = cpuTimes()
	return err
}

func (m *stealMeter) share() (float64, error) {
	total, steal, err := cpuTimes()
	if err != nil {
		return 0, err
	}
	return ratio(steal-m.steal, total-m.total), nil
}
