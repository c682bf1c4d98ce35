package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// bench is one invocation: a workload, a seed and a time budget.
type bench struct {
	w      workload
	seed   uint64
	budget time.Duration
	bin    string
	dir    string
	out    io.Writer
}

// setupReps is how many times set-up runs per invocation; setup_s is
// their median.
const setupReps = 9

// Phase sizes. The fixed-rate phase sends fixedFrac of the budget's
// worth of requests at the nominal rate, at least fixedMin, as
// fixedWindows windows; the closed loop about closedFrac of the budget
// at the workload's expected closed-loop throughput, as closedWindows
// windows; each of the capacityRungs capacity rungs rungFrac of the
// budget at ladderStart times that throughput, at least rungMin. The
// three kinds of window interleave evenly over the whole measured
// span: the reference host's speed drifts over tens of seconds, and
// each metric's median then samples all of that drift rather than its
// own few seconds of it. p50 is the median of the fixed-rate windows'
// p50s. The report's p90 and p99 summarise the fixed-rate requests
// over windows of at least windowMin: the median of the window p90s
// and the tailOver quantile of the window p99s. On the shared 2-vCPU
// reference host a quarter to a half of those windows carry a host
// stall that doubles their p99; the lower quartile is the daemon's p99
// outside those stalls. fixedMin and rungMin are variables so the
// smoke test can run in seconds.
const (
	fixedFrac, closedFrac, rungFrac = 0.35, 0.15, 0.1
	windowMin, maxWindows           = 500, 20
	fixedWindows, closedWindows     = 20, 20
	capacityRungs, rungWindows      = 10, 5
	tailOver                        = 0.25
)

var fixedMin, rungMin = 1000, 500

// The kinds of measured window, in the order interleave takes their
// counts.
const (
	fixedKind = iota
	closedKind
	rungKind
)

// job is what a workload sends and how its answers are checked.
type job struct {
	src    source
	body   func(id int) ([]byte, error)
	expect func([]byte) ([]byte, error)
	// pool, for schedule-warm, is solved by every set-up.
	pool [][]byte
}

func (b *bench) job() (*job, error) {
	switch b.w.name {
	case "schedule-cold":
		s := &streamSrc{seed: b.seed, gen: coldBody}
		return &job{src: s, body: s.body, expect: expectSchedule}, nil
	case "schedule-warm":
		pool, err := warmPool(b.seed)
		if err != nil {
			return nil, err
		}
		s := &poolSrc{pool: pool}
		return &job{src: s, body: s.body, expect: expectSchedule, pool: pool}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", b.w.name)
}

// setUp starts the daemon reps times, pre-warming the memo for
// schedule-warm each time, and keeps the last one running. It returns
// the median time from exec to a ready daemon.
func (b *bench) setUp(j *job, reps int) (*daemon, float64, error) {
	var times []float64
	for k := 0; k < reps; k++ {
		d, t, err := startDaemon(b.bin, b.dir)
		if err != nil {
			return nil, 0, err
		}
		if j.pool != nil {
			start := time.Now()
			if err := prewarm(d, j.pool); err != nil {
				d.stop()
				return nil, 0, err
			}
			t += time.Since(start)
		}
		times = append(times, t.Seconds())
		if k == reps-1 {
			return d, median(times), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
	}
	return nil, 0, errors.New("no set-up repetitions")
}

// prewarm solves every pool body once, over conns connections.
func prewarm(d *daemon, pool [][]byte) error {
	t := &target{hc: httpClient(), base: d.base}
	defer t.hc.CloseIdleConnections()
	p, err := closedLoop(t, &poolSrc{pool: pool}, len(pool))
	if err != nil {
		return err
	}
	if ok := p.ok(); ok != len(pool) {
		return fmt.Errorf("pre-warm: %d of %d bodies failed", len(pool)-ok, len(pool))
	}
	return nil
}

// calibration is the generator's self-check against a trivial
// in-process handler on loopback.
type calibration struct {
	ceiling float64 // requests/s the generator completes in a closed loop
	lateP99 float64 // ms, at the workload's nominal rate
}

func calibrate(nominal float64) (calibration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return calibration{}, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, "{}\n")
	})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	t := &target{hc: httpClient(), base: "http://" + ln.Addr().String()}
	defer t.hc.CloseIdleConnections()
	src := &poolSrc{pool: [][]byte{[]byte("{}")}}
	cl, err := closedLoop(t, src, 5000)
	if err != nil {
		return calibration{}, err
	}
	op, err := openLoop(t, src, nominal, max(200, int(nominal*0.2)), 1)
	if err != nil {
		return calibration{}, err
	}
	return calibration{
		ceiling: float64(cl.ok()) / cl.elapsed.Seconds(),
		lateP99: quantile(op.late, 0.99),
	}, nil
}

// rung is one capacity-ladder step.
type rung struct {
	rate   float64
	p99    float64
	fail   float64
	grew   bool
	passed bool
}

// endToEnd is the untraced run: set-up, then the windows of the
// fixed-rate open loop, the closed loop and the capacity search,
// interleaved, then the correctness check. Daemon CPU is summed over
// the fixed-rate and closed-loop windows, whose request counts are
// fixed; peak RSS is read at the end, after a request count that is
// fixed too.
func (b *bench) endToEnd() (*result, error) {
	cal, err := calibrate(b.w.nominal)
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	j, err := b.job()
	if err != nil {
		return nil, err
	}
	d, setup, err := b.setUp(j, setupReps)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	t := &target{hc: httpClient(), base: d.base}
	defer t.hc.CloseIdleConnections()

	m0, err := d.metrics()
	if err != nil {
		return nil, err
	}
	rss0, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var all []record

	var steal stealMeter
	if err := steal.mark(); err != nil {
		return nil, err
	}
	nFixed := max(fixedMin, int(b.w.nominal*b.budget.Seconds()*fixedFrac))
	nClosed := max(closedWindows, int(b.w.closed*b.budget.Seconds()*closedFrac)/closedWindows)
	nRung := max(rungMin, int(b.w.ladderStart*b.w.closed*b.budget.Seconds()*rungFrac))
	var fixed []record
	var winP50, fixedLate, tputs []float64
	var cpu float64
	fixedBacklog, windowOK := 0, 0
	var stairs *staircase
	// Every window sends a fixed request count, so the daemon's CPU and
	// memory are read after the same work on every run.
	for i, kind := range interleave(fixedWindows, closedWindows, capacityRungs) {
		c0, err := d.cpuSeconds()
		if err != nil {
			return nil, err
		}
		var p *phase
		switch kind {
		case fixedKind:
			p, err = openLoop(t, j.src, b.w.nominal, nFixed/fixedWindows, b.seed^0xF1C5ED^uint64(i)<<40)
		case closedKind:
			p, err = closedLoop(t, j.src, nClosed)
		case rungKind:
			if stairs == nil {
				// The interleaving puts a closed-loop window first.
				stairs = newStaircase(b.w, median(tputs))
			}
			p, err = openLoop(t, j.src, stairs.rate(), nRung, b.seed^uint64(i)<<32)
		}
		if err != nil {
			return nil, err
		}
		all = append(all, p.records...)
		if kind == rungKind {
			stairs.record(p)
			continue
		}
		c1, err := d.cpuSeconds()
		if err != nil {
			return nil, err
		}
		cpu += c1 - c0
		windowOK += p.ok()
		if kind == fixedKind {
			fixed = append(fixed, p.records...)
			winP50 = append(winP50, quantile(p.latMS(), 0.5))
			fixedLate = append(fixedLate, p.late...)
			fixedBacklog = max(fixedBacklog, p.backlog)
		} else {
			tputs = append(tputs, float64(p.ok())/p.elapsed.Seconds())
		}
	}
	p50 := median(winP50)
	fixedWins := max(1, len(fixed)/windowMin)
	p90, p99 := windowQuantile(fixed, fixedWins, 0.9, 0.5), windowQuantile(fixed, fixedWins, 0.99, tailOver)
	winP99 := windowQuantiles(fixed, fixedWins, 0.99)
	throughput := median(tputs)
	capacity := stairs.capacity()
	cpuPerReq := cpu * 1000 / float64(windowOK)

	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	m1, err := d.metrics()
	if err != nil {
		return nil, err
	}
	memoRequests := len(all)

	stolen, err := steal.share()
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	wrong, err := verify(all, j.body, j.expect)
	if err != nil {
		return nil, fmt.Errorf("correctness check: %w", err)
	}
	failed := len(all) - okCount(all) + wrong
	res := &result{
		Correct:   wrong == 0,
		Attempted: len(all),
		Failed:    failed,
		Metrics: map[string]metric{
			"throughput_rps": {throughput, "1/s"},
			"p50_ms":         {p50, "ms"},
			"capacity_rps":   {capacity, "1/s"},
			"ok_frac":        {1 - float64(failed)/float64(len(all)), "frac"},
			"cpu_ms_per_req": {cpuPerReq, "ms"},
			"rss_peak_mb":    {rss, "MB"},
			"setup_s":        {setup, "s"},
		},
	}

	late := quantile(fixedLate, 0.99)
	valid := late < b.w.slo/10 && b.w.nominal < cal.ceiling/2
	var rep strings.Builder
	fmt.Fprintf(&rep, "workload %s seed %d: %d requests, %d failed, %d wrong answers\n", b.w.name, b.seed, len(all), failed, wrong)
	fmt.Fprintf(&rep, "fixed rate %.0f req/s: %d requests in %d windows, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (window p99s %.3f ms); closed loop: %d windows of %d requests, %.0f req/s\n",
		b.w.nominal, len(fixed), fixedWindows, p50, p90, p99, winP99, closedWindows, nClosed, tputs)
	fmt.Fprintf(&rep, "host: %.1f%% of CPU time stolen by the hypervisor over the measured phases\n", 100*stolen)
	fmt.Fprintf(&rep, "generator: ceiling %.0f req/s on a trivial handler, late p99 %.3f ms at rest, %.3f ms in the fixed-rate phase, backlog max %d\n",
		cal.ceiling, cal.lateP99, late, fixedBacklog)
	if !valid {
		fmt.Fprintf(&rep, "INVALID: the generator fell behind (late p99 %.3f ms, limit %.3f ms; nominal %.0f req/s vs ceiling %.0f); its latencies are not daemon measurements\n",
			late, b.w.slo/10, b.w.nominal, cal.ceiling)
	}
	entries := m1["portfolio_cache_entries"]
	fmt.Fprintf(&rep, "memo: %.0f entries after %d requests (%.1f per request); peak RSS %.1f MB after set-up, %.1f MB after them (%.1f MB per 1000 requests); %.0f hits, %.0f misses\n",
		entries, memoRequests, entries/float64(memoRequests), rss0, rss, (rss-rss0)/float64(memoRequests)*1000,
		delta(m0, m1, "portfolio_cache_hits_total"), delta(m0, m1, "portfolio_cache_misses_total"))
	for _, r := range stairs.rungs {
		fmt.Fprintf(&rep, "ladder %8.1f req/s: p99 %8.3f ms, fail %.4f, backlog grew %v, pass %v\n", r.rate, r.p99, r.fail, r.grew, r.passed)
	}
	fmt.Fprint(b.out, rep.String())
	if err := os.WriteFile(filepath.Join(b.dir, "report.txt"), []byte(rep.String()), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// staircase is the capacity search: an up-down staircase of rungs on
// the workload's ladder, from the rung below ladderStart times the
// closed-loop throughput measured so far. A rung passes when its p99,
// summarised over windows as in the report, is under the SLO, fewer
// than 1% of its requests fail, and the generator's backlog did not
// grow. After a pass the next rung is higher, after a failure lower:
// four rungs at a time at first, halving at each reversal of direction
// down to one. From there the staircase oscillates about the knee, and
// capacity is the median rate of the rungs that passed there, so a
// stall of the daemon or the host during one rung moves the result by
// a fraction of a rung instead of ending the search. The wide first
// steps reach the knee within a few rungs from a start that one slow
// closed-loop window set far below it; waiting for the step to reach
// one keeps one failed first rung from leaving the staircase to crawl
// up from below the knee. Without settled rungs capacity is the
// highest rate that passed, 0 if none did.
type staircase struct {
	w       workload
	k       int // index of the next rung's rate on the ladder
	step    int
	rungs   []rung
	settled []float64
}

func newStaircase(w workload, throughput float64) *staircase {
	k := 0
	for k+1 < len(w.ladder) && w.ladder[k+1] <= w.ladderStart*throughput {
		k++
	}
	return &staircase{w: w, k: k, step: 4}
}

// rate is the next rung's rate.
func (s *staircase) rate() float64 { return s.w.ladder[s.k] }

// record judges the rung p, sent at rate(), and picks the next rate.
func (s *staircase) record(p *phase) {
	r := rung{rate: s.rate(), p99: windowQuantile(p.records, rungWindows, 0.99, tailOver), fail: p.failFrac(), grew: p.backlogGrew()}
	r.passed = r.p99 < s.w.slo && r.fail < 0.01 && !r.grew
	if n := len(s.rungs); n > 0 && r.passed != s.rungs[n-1].passed {
		s.step = max(1, s.step/2)
	}
	s.rungs = append(s.rungs, r)
	if s.step == 1 && r.passed {
		s.settled = append(s.settled, r.rate)
	}
	if r.passed {
		s.k = min(s.k+s.step, len(s.w.ladder)-1)
	} else {
		s.k = max(s.k-s.step, 0)
	}
}

func (s *staircase) capacity() float64 {
	if len(s.settled) > 0 {
		return median(s.settled)
	}
	best := 0.0
	for _, r := range s.rungs {
		if r.passed {
			best = max(best, r.rate)
		}
	}
	return best
}

// interleave spreads counts[k] windows of each kind k evenly over one
// sequence of kinds: the j-th window of kind k sits at (j+0.5)/counts[k]
// of the way through it.
func interleave(counts ...int) []int {
	type slot struct {
		at   float64
		kind int
	}
	var slots []slot
	for k, n := range counts {
		for j := 0; j < n; j++ {
			slots = append(slots, slot{(float64(j) + 0.5) / float64(n), k})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
	kinds := make([]int, len(slots))
	for i, s := range slots {
		kinds[i] = s.kind
	}
	return kinds
}
