// Command perfbench is the repository benchmark: it starts the real
// cmd/coschedd binary on loopback, drives it from this one process over
// two keep-alive connections, checks every response against the
// library, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of its standard output.
//
// Usage (normally through perfbench/run.sh, which builds both binaries):
//
//	perfbench --workload schedule-cold --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	schedule-cold  POST /v1/schedule, a distinct genscen body per request:
//	               every request misses the memo and races all twelve
//	               heuristics
//	schedule-warm  POST /v1/schedule over a fixed pool solved during
//	               set-up: every timed request is a memo read
//
// The traced run of either workload also times the /v1/simulate-fleet
// chain on fresh fleet specs.
//
// See NOTES.md for the metric definitions, what each layer metric is
// expected to move, and the recorded baseline findings.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload fixes everything about a traffic mix except its seed.
type workload struct {
	name string
	// nominal is the fixed open-loop rate p50_ms and p99_ms are
	// measured at, in requests per second.
	nominal float64
	// closed is the closed-loop throughput, in requests per second,
	// the closed-loop windows and capacity rungs are sized for: about
	// what the reference host reaches.
	closed float64
	// slo is the p99 latency limit, in ms, a capacity rung must meet.
	slo float64
	// ladder is the fixed ascending list of rates capacity_rps is
	// chosen from; the search starts at the rung below ladderStart
	// times the closed-loop throughput.
	ladder      []float64
	ladderStart float64
}

// geometric returns n rates from lo upward, each step a factor r.
func geometric(lo, r float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo * math.Pow(r, float64(i))
	}
	return out
}

// The nominal rates sit near an eighth of each workload's closed-loop
// throughput on a 2-CPU host, so a request seldom waits for another and
// the p50 follows the speed of one request alone. A host that lends its
// CPUs to other guests can cut the daemon's capacity by half or more:
// at a quarter of the throughput the fixed-rate loop then ran past the
// knee and its p50 grew twentyfold, at a sixth it grew fourfold.
// The SLOs are far above the p99 at the nominal rate, so capacity marks
// the knee where queues start to grow, not a point on the gradual rise
// before it, and moves with the system's speed more than with its
// noise. The ladders step by 2^(1/16) (4.4%) from far below capacity to
// above it; the search starts a rung or two below where the knee sat on
// that host, as a share (ladderStart) of the closed-loop throughput.
var workloads = []workload{
	{name: "schedule-cold", nominal: 200, closed: 1700, slo: 100, ladder: geometric(100, math.Pow(2, 1.0/16), 96), ladderStart: 0.85},
	{name: "schedule-warm", nominal: 750, closed: 5500, slo: 50, ladder: geometric(400, math.Pow(2, 1.0/16), 96), ladderStart: 0.95},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		name    = fs.String("workload", "", "schedule-cold or schedule-warm")
		seed    = fs.Uint64("seed", 1, "input seed: the same seed sends the same bodies")
		seconds = fs.Int("seconds", 20, "measured seconds")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
		bin     = fs.String("daemon", filepath.Join(".bench_build", "coschedd"), "coschedd binary")
		runs    = fs.String("out", filepath.Join(".bench_build", "runs"), "directory for spans, tables and reports")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	// The generator's garbage is per-request buffers over a few MB of
	// live state; collecting it every few MB would put a collection in
	// most latency windows, on the CPUs the daemon shares. The memory
	// limit keeps the heap bounded all the same.
	debug.SetGCPercent(2000)
	debug.SetMemoryLimit(1 << 30)
	dir := filepath.Join(*runs, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traced))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 1
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, bin: *bin, dir: dir, out: out}
	var res *result
	if *traced == 1 {
		res, err = b.traced()
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		fmt.Fprintln(errOut, "perfbench: wrong answers; see", dir)
		return 1
	}
	return 0
}

// quantile is stats.Quantile on a non-empty sample, NaN otherwise.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return math.NaN()
	}
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
