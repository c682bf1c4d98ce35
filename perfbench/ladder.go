package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	repro "repro"
	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/solve"
)

// The layer ladder: the same input timed at every layer's public
// function, bottom to top. Spans are recorded around each call from
// this file; the program under test carries no tracing of its own.
// Calls of one request run one after another, so a parent span does
// not enclose its children in time: the span tree is the logical call
// tree, and a layer's self time is its span's duration minus its
// children's (see selfTimes).

// Span names. Each is the public function the span times.
const (
	spEqualize  = "sched.EqualizeAmdahl"
	spHeuristic = "sched.Heuristic.Schedule"
	spRace      = "portfolio.Engine.Evaluate"
	spMemo      = "portfolio.Engine.Evaluate.warm"
	spBest      = "repro.Client.Best"
	spDecode    = "serve.ScenarioWire.Scenario"
	spHandler   = "serve.Server.ServeHTTP"
	spLoopback  = "http.POST./v1/schedule"
	spNode      = "des.Simulate"
	spFleet     = "fleet.Simulate"
	spFleet1    = "fleet.Simulate.workers1"
	spFleetHTTP = "http.POST./v1/simulate-fleet"
	spTraffic   = "load.request"
)

// schedLadder times the /v1/schedule chain on scenario bodies. In
// warm mode every layer with a memo is solved once before it is timed,
// as the daemon's pre-warmed memo is, and the race layers are timed off
// the request path.
type schedLadder struct {
	tr     *tracer
	base   string
	hc     *http.Client
	warm   bool
	srv    *serve.Server
	checks int // responses compared across layers
	wrong  int // responses that differ between layers
	// repeats and vectors count heuristic share vectors that repeat
	// an earlier vector of the same race, and all vectors.
	repeats, vectors int
}

func newSchedLadder(tr *tracer, base string, warm bool) *schedLadder {
	reg := obs.NewRegistry()
	return &schedLadder{
		tr: tr, base: base, hc: httpClient(), warm: warm,
		srv: serve.New(serve.Config{Client: repro.NewClient(repro.WithMetrics(reg)), Registry: reg}),
	}
}

func timed(f func()) (time.Time, time.Time) {
	s := time.Now()
	f()
	return s, time.Now()
}

// run times one body through every layer and checks that the
// in-process handler and the daemon answer with the same bytes.
func (l *schedLadder) run(req int, body []byte) error {
	tr := l.tr
	loop, handler, best := tr.reserve(), tr.reserve(), tr.reserve()
	// Cold, the race is on the request path and a memo read is not; on a
	// memo hit the race does no work and hangs off the path.
	raceParent, memoParent := best, int64(0)
	if l.warm {
		raceParent, memoParent = 0, best
	}
	race, memo := tr.reserve(), tr.reserve()

	var sj serve.ScenarioWire
	var sc repro.PortfolioScenario
	var derr error
	s, e := timed(func() {
		if derr = json.Unmarshal(body, &sj); derr == nil {
			sc, derr = sj.Scenario(serve.Defaults{Platform: repro.TaihuLight()})
		}
	})
	if derr != nil {
		return derr
	}
	tr.add(tr.reserve(), spDecode, req, handler, s, e, "")

	seen := map[string]bool{}
	for hi, h := range sched.ExtendedHeuristics {
		hid := tr.reserve()
		var rng *solve.RNG
		if h.Randomized() {
			rng = solve.NewRNG(portfolio.HeuristicSeed(sc.Seed, hi))
		}
		var out *sched.Schedule
		var herr error
		s, e := timed(func() { out, herr = h.Schedule(sc.Platform, sc.Apps, rng) })
		tr.add(hid, spHeuristic, req, race, s, e, h.String())
		if herr != nil {
			continue
		}
		shares := make([]float64, len(out.Assignments))
		key := make([]byte, 0, 8*len(shares))
		for i, a := range out.Assignments {
			shares[i] = a.CacheShare
			key = fmt.Appendf(key, "%x,", math.Float64bits(a.CacheShare))
		}
		l.vectors++
		if seen[string(key)] {
			l.repeats++
		}
		seen[string(key)] = true
		s, e = timed(func() { _, _, _ = sched.EqualizeAmdahl(sc.Platform, sc.Apps, shares) })
		tr.add(tr.reserve(), spEqualize, req, hid, s, e, "")
	}

	eng := portfolio.New(portfolio.Config{Cache: portfolio.NewCache()})
	var rerr error
	s, e = timed(func() { _, rerr = eng.Evaluate(sc) })
	if rerr != nil {
		return rerr
	}
	tr.add(race, spRace, req, raceParent, s, e, "")
	s, e = timed(func() { _, rerr = eng.Evaluate(sc) })
	tr.add(memo, spMemo, req, memoParent, s, e, "")

	c := repro.NewClient(repro.WithSeed(sc.Seed))
	if l.warm {
		if _, _, err := c.Best(context.Background(), sc.Platform, sc.Apps); err != nil {
			return err
		}
	}
	var berr error
	s, e = timed(func() { _, _, berr = c.Best(context.Background(), sc.Platform, sc.Apps) })
	if berr != nil {
		return berr
	}
	tr.add(best, spBest, req, handler, s, e, "")

	serveOnce := func() (*httptest.ResponseRecorder, time.Time, time.Time) {
		r := httptest.NewRequest(http.MethodPost, pathSchedule, bytes.NewReader(body))
		w := httptest.NewRecorder()
		s, e := timed(func() { l.srv.ServeHTTP(w, r) })
		return w, s, e
	}
	if l.warm {
		serveOnce()
	}
	w, s, e := serveOnce()
	if w.Code != http.StatusOK {
		return fmt.Errorf("in-process handler: status %d: %s", w.Code, w.Body.String())
	}
	tr.add(handler, spHandler, req, loop, s, e, "")

	var st int
	var resp []byte
	var perr error
	s, e = timed(func() { st, resp, perr = post(l.hc, l.base+pathSchedule, body) })
	if perr != nil {
		return perr
	}
	if st != http.StatusOK {
		return fmt.Errorf("daemon: status %d: %s", st, resp)
	}
	tr.add(loop, spLoopback, req, 0, s, e, "")
	l.checks++
	if !bytes.Equal(resp, w.Body.Bytes()) {
		l.wrong++
	}
	return nil
}

// fleetLadder times the /v1/simulate-fleet chain on fleet specs.
type fleetLadder struct {
	tr   *tracer
	base string
	hc   *http.Client
	// checks counts specs; wrong counts those whose daemon response
	// differs from the in-process fleet.Simulate rendering or whose
	// replayed nodes differ from the fleet run (des.node.p50_ms would
	// then time other work than the fleet ran).
	checks, wrong int
	// nodeChecks and nodeWrong compare each replayed node's makespan
	// with the node's makespan inside the fleet run.
	nodeChecks, nodeWrong int
}

func newFleetLadder(tr *tracer, base string) *fleetLadder {
	return &fleetLadder{tr: tr, base: base, hc: httpClient()}
}

func cachedEngine(workers int) *portfolio.Engine {
	return portfolio.New(portfolio.Config{Workers: workers, Cache: portfolio.NewCache()})
}

func (l *fleetLadder) run(req int, body []byte) error {
	tr := l.tr
	sp, err := decodeFleet(body)
	if err != nil {
		return err
	}
	loop, fl := tr.reserve(), tr.reserve()

	sc, err := sp.BuildWith(cachedEngine(0), 0)
	if err != nil {
		return err
	}
	var res *fleet.Result
	var ferr error
	s, e := timed(func() { res, ferr = fleet.Simulate(sc) })
	if ferr != nil {
		return ferr
	}
	tr.add(fl, spFleet, req, loop, s, e, "")

	sc1, err := sp.BuildWith(cachedEngine(1), 1)
	if err != nil {
		return err
	}
	s, e = timed(func() { _, ferr = fleet.Simulate(sc1) })
	if ferr != nil {
		return ferr
	}
	tr.add(tr.reserve(), spFleet1, req, 0, s, e, "")

	// Replay each node's routed stream through the single-node
	// simulator, with the node's own policy seed and a shared engine,
	// as the fleet runs it.
	src, err := sp.BuildWith(nil, 1)
	if err != nil {
		return err
	}
	var arrivals []des.Arrival
	for a, ok := src.Arrivals.Next(); ok; a, ok = src.Arrivals.Next() {
		arrivals = append(arrivals, a)
	}
	perNode := make([][]des.Arrival, len(sc.Nodes))
	for _, rt := range res.Routes {
		perNode[rt.Node] = append(perNode[rt.Node], arrivals[rt.Job])
	}
	eng := cachedEngine(0)
	nodesMatch := true
	for i, arr := range perNode {
		if len(arr) == 0 {
			continue
		}
		proc, err := des.NewReplay(arr)
		if err != nil {
			return err
		}
		pol, err := des.ParsePolicyShared(eng, sc.Nodes[i].Policy, 0, fleet.NodePolicySeed(sc.Seed, i))
		if err != nil {
			return err
		}
		nsc := des.Scenario{Platform: sc.Nodes[i].Platform, Arrivals: proc, Policy: pol, MaxResident: sc.Nodes[i].MaxResident}
		var nres *des.Result
		var nerr error
		s, e := timed(func() { nres, nerr = des.Simulate(nsc) })
		if nerr != nil {
			return nerr
		}
		tr.add(tr.reserve(), spNode, req, fl, s, e, "")
		l.nodeChecks++
		if nres.Makespan != res.Nodes[i].Result.Makespan {
			l.nodeWrong++
			nodesMatch = false
		}
	}

	want, err := encodeLine(serve.FleetSummaryOf(sc, res))
	if err != nil {
		return err
	}
	var st int
	var resp []byte
	var perr error
	s, e = timed(func() { st, resp, perr = post(l.hc, l.base+pathFleet, body) })
	if perr != nil {
		return perr
	}
	if st != http.StatusOK {
		return fmt.Errorf("daemon: status %d: %s", st, resp)
	}
	tr.add(loop, spFleetHTTP, req, 0, s, e, "")
	l.checks++
	if !bytes.Equal(resp, want) || !nodesMatch {
		l.wrong++
	}
	return nil
}
