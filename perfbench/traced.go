package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/sched"
)

// Ladder input counts: at least the minimum, then as many as fit in
// the ladder's share of the budget, up to the maximum.
const (
	schedLadderMin, schedLadderMax = 50, 400
	fleetLadderMin, fleetLadderMax = 8, 40
	// traceTrafficMin is the fewest requests in each of the untraced and
	// traced traffic phases.
	traceTrafficMin = 200
)

// schedOrder and fleetOrder list the rungs of each chain, bottom up.
var (
	schedOrder = []string{spEqualize, spHeuristic, spRace, spMemo, spBest, spDecode, spHandler, spLoopback}
	fleetOrder = []string{spNode, spFleet, spFleet1, spFleetHTTP}
)

// traced is the per-layer run: the workload's traffic at the nominal
// rate untraced and then traced, the /v1/schedule ladder and the
// /v1/simulate-fleet ladder, then the correctness check. It reports the
// per-layer metrics and writes the spans and the share tables.
func (b *bench) traced() (*result, error) {
	cal, err := calibrate(b.w.nominal)
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	j, err := b.job()
	if err != nil {
		return nil, err
	}
	d, _, err := b.setUp(j, 1)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	t := &target{hc: httpClient(), base: d.base}
	defer t.hc.CloseIdleConnections()

	s0, err := d.metrics()
	if err != nil {
		return nil, err
	}
	nT := max(traceTrafficMin, int(b.w.nominal*b.budget.Seconds()*0.2))
	plain, err := openLoop(t, j.src, b.w.nominal, nT, b.seed^0x71A1)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	t.spans = tr
	tracedPhase, err := openLoop(t, j.src, b.w.nominal, nT, b.seed^0x71A2)
	t.spans = nil
	if err != nil {
		return nil, err
	}
	s1, err := d.metrics()
	if err != nil {
		return nil, err
	}
	mem, err := d.memstats()
	if err != nil {
		return nil, err
	}

	// The /v1/schedule ladder runs on the workload's own bodies; the
	// /v1/simulate-fleet ladder on fresh fleet specs.
	sl := newSchedLadder(tr, d.base, j.pool != nil)
	defer sl.hc.CloseIdleConnections()
	if err := ladderLoop(b.budget/5, schedLadderMin, schedLadderMax, func(k int) error {
		var body []byte
		var err error
		if j.pool != nil {
			body = j.pool[k%len(j.pool)]
		} else {
			_, body, err = j.src.next()
		}
		if err != nil {
			return err
		}
		return sl.run(k, body)
	}); err != nil {
		return nil, fmt.Errorf("schedule ladder: %w", err)
	}

	fl := newFleetLadder(tr, d.base)
	defer fl.hc.CloseIdleConnections()
	if err := ladderLoop(b.budget/5, fleetLadderMin, fleetLadderMax, func(k int) error {
		body, err := fleetBody(b.seed, k)
		if err != nil {
			return err
		}
		return fl.run(k, body)
	}); err != nil {
		return nil, fmt.Errorf("fleet ladder: %w", err)
	}
	s2, err := d.metrics()
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	all := append(append([]record(nil), plain.records...), tracedPhase.records...)
	wrong, err := verify(all, j.body, j.expect)
	if err != nil {
		return nil, fmt.Errorf("correctness check: %w", err)
	}
	failed := 0
	for _, r := range all {
		if r.status != 200 {
			failed++
		}
	}
	wrong += sl.wrong + fl.wrong
	failed += wrong

	workers := float64(runtime.GOMAXPROCS(0))
	sRows := tr.layerTable(spLoopback, schedOrder, map[string]float64{spRace: workers})
	fRows := tr.layerTable(spFleetHTTP, fleetOrder, nil)

	m := map[string]metric{}
	us := func(name string, v float64) { m[name] = metric{v, "us"} }
	ms := func(name string, v float64) { m[name] = metric{v, "ms"} }
	frac := func(name string, v float64) { m[name] = metric{v, "frac"} }
	count := func(name string, v float64) { m[name] = metric{v, "count"} }

	// sched
	count("sched.equalize.calls", float64(len(tr.durations(spEqualize, ""))))
	us("sched.equalize.p50_us", median(tr.durations(spEqualize, "")))
	frac("sched.equalize.share", shareOf(sRows, spEqualize))
	frac("sched.equalize.repeat_frac", ratio(float64(sl.repeats), float64(sl.vectors)))
	busy := 0.0
	for _, x := range tr.durations(spHeuristic, "") {
		busy += x
	}
	for _, h := range sched.ExtendedHeuristics {
		ds := tr.durations(spHeuristic, h.String())
		sum := 0.0
		for _, x := range ds {
			sum += x
		}
		us("sched.heuristic."+h.String()+".p50_us", median(ds))
		frac("sched.heuristic."+h.String()+".busy_share", ratio(sum, busy))
	}
	// portfolio
	race := tr.durations(spRace, "")
	us("portfolio.race.p50_us", median(race))
	us("portfolio.race.p99_us", quantile(race, 0.99))
	frac("portfolio.race.share", shareOf(sRows, spRace))
	heur := tr.perReq(spHeuristic)
	var crit []float64
	for req, wall := range tr.perReq(spRace) {
		if heur[req] > 0 {
			crit = append(crit, wall*workers/heur[req])
		}
	}
	m["portfolio.race.critical_path_frac"] = metric{median(crit), "ratio"}
	us("portfolio.memo.p50_us", median(tr.durations(spMemo, "")))
	hits := delta(s0, s1, "portfolio_cache_hits_total")
	misses := delta(s0, s1, "portfolio_cache_misses_total")
	frac("portfolio.cache.hit_frac", ratio(hits, hits+misses))
	count("portfolio.cache.entries", s1["portfolio_cache_entries"])
	// repro
	best := median(tr.durations(spBest, ""))
	us("client.best.p50_us", best)
	frac("client.best.share", shareOf(sRows, spBest))
	// serve
	handler := median(tr.durations(spHandler, ""))
	us("serve.decode.p50_us", median(tr.durations(spDecode, "")))
	us("serve.handler.p50_us", handler)
	us("serve.overhead_us", handler-best)
	shed := delta(s0, s1, "coschedd_shed_total")
	frac("serve.shed_frac", ratio(shed, shed+delta(s0, s1, "coschedd_admitted_total")))
	// loopback HTTP
	loop := median(tr.durations(spLoopback, ""))
	us("http.loopback.p50_us", loop)
	us("http.overhead_us", loop-handler)
	ms("http.fleet.p50_ms", median(tr.durations(spFleetHTTP, ""))/1e3)
	// generator
	ms("load.late_p99_ms", quantile(plain.late, 0.99))
	// The nominal-rate tail of the untraced traffic, summarised as in
	// the end-to-end report. It is reported here, without a bound,
	// because host stalls make it too unsteady to gate on (NOTES.md).
	windows := min(maxWindows, max(1, len(plain.records)/windowMin))
	ms("load.p90_ms", windowQuantile(plain.records, windows, 0.9, 0.5))
	ms("load.p99_ms", windowQuantile(plain.records, windows, 0.99, tailOver))
	count("load.backlog_max", float64(max(plain.backlog, tracedPhase.backlog)))
	m["load.ceiling_rps"] = metric{cal.ceiling, "1/s"}
	p50Plain, p50Traced := median(plain.latMS()), median(tracedPhase.latMS())
	ms("trace.overhead_ms", p50Traced-p50Plain)
	// Go runtime
	frac("runtime.gc_cpu_frac", mem.GCCPUFraction)
	m["runtime.heap_inuse_mb"] = metric{float64(mem.HeapInuse) / (1 << 20), "MB"}
	// des: counters over every fleet request of the run
	events := 0.0
	for _, k := range []string{"arrival", "start", "finish", "repartition"} {
		events += delta(s0, s2, `des_events_total{kind="`+k+`"}`)
	}
	count("des.events", events)
	fast, full := delta(s0, s2, "des_replan_fastpath_total"), delta(s0, s2, "des_replan_fullsolve_total")
	frac("des.replan.fastpath_frac", ratio(fast, fast+full))
	mh, mm := delta(s0, s2, "des_replan_memo_hits_total"), delta(s0, s2, "des_replan_memo_misses_total")
	frac("des.replan.memo_hit_frac", ratio(mh, mh+mm))
	sims := delta(s0, s2, `coschedd_requests_total{endpoint="`+pathFleet+`"}`)
	count("des.replan.fullsolve_per_sim", ratio(full, sims))
	ms("des.node.p50_ms", median(tr.durations(spNode, ""))/1e3)
	// fleet
	ms("fleet.simulate.p50_ms", median(tr.durations(spFleet, ""))/1e3)
	fleetPar, fleetSer, nodes := tr.perReq(spFleet), tr.perReq(spFleet1), tr.perReq(spNode)
	var fan, over []float64
	for req, v := range fleetPar {
		fan = append(fan, v/fleetSer[req])
		over = append(over, (v-nodes[req])/v)
	}
	m["fleet.fanout_ratio"] = metric{median(fan), "ratio"}
	frac("fleet.overhead_frac", median(over))

	var rep strings.Builder
	fmt.Fprintf(&rep, "traced run: workload %s seed %d\n", b.w.name, b.seed)
	fmt.Fprintf(&rep, "traffic: %d requests at %.0f req/s, p50 %.3f ms untraced, %.3f ms traced; %d failed, %d wrong answers\n",
		len(all), b.w.nominal, p50Plain, p50Traced, failed, wrong)
	fmt.Fprintf(&rep, "ladders: %d schedule bodies, %d fleet specs; %d of %d replayed nodes matched their fleet makespan\n",
		sl.checks, fl.checks, fl.nodeChecks-fl.nodeWrong, fl.nodeChecks)
	scheduleTitle := "/v1/schedule chain (" + map[bool]string{true: "memo hits", false: "cold"}[j.pool != nil] + "), share of " + spLoopback
	fleetTitle := "/v1/simulate-fleet chain, share of " + spFleetHTTP
	rep.WriteString(tableString(scheduleTitle, sRows))
	rep.WriteString(tableString(fleetTitle, fRows))
	fmt.Fprint(b.out, rep.String())
	if err := os.WriteFile(filepath.Join(b.dir, "layers.txt"), []byte(rep.String()), 0o644); err != nil {
		return nil, err
	}
	if err := tr.writeNDJSON(filepath.Join(b.dir, "spans.ndjson")); err != nil {
		return nil, err
	}
	return &result{Correct: wrong == 0, Attempted: len(all) + sl.checks + fl.checks, Failed: failed, Metrics: m}, nil
}

// ladderLoop calls f(0), f(1), ... at least lo times, then until d has
// passed or hi calls have run.
func ladderLoop(d time.Duration, lo, hi int, f func(k int) error) error {
	start := time.Now()
	for k := 0; k < hi && (k < lo || time.Since(start) < d); k++ {
		if err := f(k); err != nil {
			return err
		}
	}
	return nil
}

// ratio is a/b, or 0 when b is 0 (nothing of the kind happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
