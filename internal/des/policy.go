package des

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/model"
	"repro/internal/portfolio"
	"repro/internal/sched"
	"repro/internal/selector"
	"repro/internal/solve"
)

// Resident is the engine's view of one job currently on the node, as
// presented to the online policy.
type Resident struct {
	Job int               // job id
	App model.Application // original profile (full work)
	// Remaining is the fraction of the job's work left, in (0, 1].
	Remaining float64
	// Assign is the job's current allocation; zero for jobs that just
	// arrived or are parked with no resources.
	Assign sched.Assignment
	// Started reports whether the job has ever held processors.
	Started bool
}

// Policy decides, at every arrival and completion, how the platform's
// processors and cache are split among the resident jobs. Allocations
// must respect the platform budgets (Σp ≤ p, Σx ≤ 1); the engine
// validates and rejects overruns. A zero assignment parks a job (it
// makes no progress until a later repartition). Policies may keep
// internal state (invocation counters for RNG substreams); they must be
// deterministic functions of their construction parameters and the
// sequence of Allocate calls.
type Policy interface {
	// Allocate returns one assignment per resident, in resident order.
	Allocate(pl model.Platform, residents []Resident) ([]sched.Assignment, error)
	// Name identifies the policy in reports and error messages.
	Name() string
}

// policySeedStride separates the RNG substreams of successive policy
// invocations, mirroring the portfolio engine's per-heuristic stride.
const policySeedStride = 0x9E3779B97F4A7C15

// ReplanStats is the delta-rescheduling telemetry of an online policy:
// how often an Allocate call was served entirely by certified memoized
// plans versus running a solver, plus the policy's plan cache counters
// (which count per-heuristic lookups of the deterministic heuristics,
// so for the portfolio policy they run ahead of the per-call counters).
type ReplanStats struct {
	// FastPath counts Allocate calls answered without running any
	// deterministic solver: every deterministic plan came from the plan
	// cache, certified bit-equivalent by its exact input key.
	FastPath uint64 `json:"fastPath"`
	// FullSolve counts Allocate calls that ran at least one
	// deterministic solve — first-seen resident shapes, evicted entries,
	// or full-replan mode.
	FullSolve uint64 `json:"fullSolve"`
	// MemoHits / MemoMisses are the plan cache's per-lookup counters.
	MemoHits   uint64 `json:"memoHits"`
	MemoMisses uint64 `json:"memoMisses"`
	// MemoEvictions counts plans the cache's FIFO capacity bound
	// dropped; a high rate on a recurring workload means the cache is
	// undersized for the resident-shape variety.
	MemoEvictions uint64 `json:"memoEvictions,omitempty"`
}

// Add accumulates s into r (used by conform's per-family aggregation).
func (r *ReplanStats) Add(s ReplanStats) {
	r.FastPath += s.FastPath
	r.FullSolve += s.FullSolve
	r.MemoHits += s.MemoHits
	r.MemoMisses += s.MemoMisses
	r.MemoEvictions += s.MemoEvictions
}

// HitRate returns the memo hit fraction, or 0 for an untouched memo.
func (r ReplanStats) HitRate() float64 {
	total := r.MemoHits + r.MemoMisses
	if total == 0 {
		return 0
	}
	return float64(r.MemoHits) / float64(total)
}

// withCache fills st's memo counters from the policy's plan cache.
func (st ReplanStats) withCache(c *portfolio.Cache) ReplanStats {
	cs := c.Stats()
	st.MemoHits, st.MemoMisses, st.MemoEvictions = cs.Hits, cs.Misses, cs.Evictions
	return st
}

// residualApps builds the application set a policy hands to the paper's
// heuristics: each resident's profile with its work scaled to what is
// left, so remaining work is charged under the shares decided now. A
// fresh job (Remaining == 1) is passed through bit-identically. The
// result reuses buf's backing array when large enough — policies keep a
// private buffer so per-event replanning does not allocate (nothing
// downstream retains the slice past the Allocate call).
func residualApps(buf []model.Application, residents []Resident) []model.Application {
	apps := buf
	if cap(apps) < len(residents) {
		apps = make([]model.Application, len(residents))
	}
	apps = apps[:len(residents)]
	for i, r := range residents {
		a := r.App
		a.Work *= r.Remaining
		// A resident parked a hair above the completion tolerance can
		// have Remaining so small that the product underflows to zero —
		// an app the model validators reject (Work must be > 0) and the
		// heuristics would mis-rank. Clamp to the smallest positive
		// denormal: still "essentially finished" for every ranking
		// purpose, but a valid application.
		if a.Work == 0 {
			a.Work = math.SmallestNonzeroFloat64
		}
		apps[i] = a
	}
	return apps
}

// HeuristicPolicy repartitions with one of the paper's heuristics at
// every decision point, rescheduling the residual work of every
// resident job. It replans through its own plan cache
// (portfolio.NewReplanCache): a recurring resident shape (waves of
// template jobs under a residency cap) is served by the memoized plan,
// certified bit-equivalent to a cold solve by its exact input key.
// Randomized heuristics always re-solve — their per-call RNG substream
// never repeats, so the cache does not memoize them.
type HeuristicPolicy struct {
	h     sched.Heuristic
	seed  uint64
	calls uint64
	full  bool
	cache *portfolio.Cache
	stats ReplanStats
	apps  []model.Application // residual-work plan buffer, recycled
}

// NewHeuristicPolicy returns a policy wrapping h. Sequential heuristics
// (AllProcCache) cannot express a concurrent repartition and are
// rejected. The seed drives the randomized heuristics; each invocation
// uses its own substream so replanning decisions stay independent.
func NewHeuristicPolicy(h sched.Heuristic, seed uint64) (*HeuristicPolicy, error) {
	if h == sched.AllProcCache {
		return nil, fmt.Errorf("des: %v is sequential and cannot drive online repartitioning", h)
	}
	return &HeuristicPolicy{h: h, seed: seed, cache: portfolio.NewReplanCache()}, nil
}

// SetFullReplan disables (true) or re-enables (false) the plan cache,
// forcing every Allocate call through a cold solve. The conform
// equivalence sweep runs both modes and compares event logs
// bit-for-bit; the ":full" policy-spec suffix exposes it on the wire.
func (p *HeuristicPolicy) SetFullReplan(full bool) { p.full = full }

// ReplanStats reports the delta-rescheduling telemetry; the engine
// copies it into Result.Replan.
func (p *HeuristicPolicy) ReplanStats() ReplanStats { return p.stats.withCache(p.cache) }

// Allocate implements Policy.
func (p *HeuristicPolicy) Allocate(pl model.Platform, residents []Resident) ([]sched.Assignment, error) {
	p.calls++
	p.apps = residualApps(p.apps, residents)
	cache := p.cache
	if p.full {
		cache = nil
	}
	// The call counter advances for every heuristic kind, so the
	// substream schedule is independent of whether h reads it.
	s, fromCache, err := cache.Schedule(context.TODO(), pl, p.apps, p.h, p.seed^p.calls*policySeedStride)
	if err != nil {
		return nil, err
	}
	if fromCache {
		p.stats.FastPath++
	} else {
		p.stats.FullSolve++
	}
	if s.Sequential {
		return nil, fmt.Errorf("des: heuristic %v produced a sequential schedule", p.h)
	}
	return s.Assignments, nil
}

// Name implements Policy.
func (p *HeuristicPolicy) Name() string { return "heuristic:" + p.h.String() }

// onlineHeuristics is the portfolio raced by PortfolioPolicy: every
// extended heuristic except the sequential AllProcCache baseline.
func onlineHeuristics() []sched.Heuristic {
	hs := make([]sched.Heuristic, 0, len(sched.ExtendedHeuristics))
	for _, h := range sched.ExtendedHeuristics {
		if h != sched.AllProcCache {
			hs = append(hs, h)
		}
	}
	return hs
}

// PortfolioPolicy races the whole heuristic portfolio over the residual
// workload at every decision point and applies the winner — the
// portfolio engine turned into an online repartitioner. Races run on
// the engine's worker pool; results are bit-deterministic at any pool
// size, so the simulation is too.
//
// Delta rescheduling: the policy races through its own plan cache
// (portfolio.NewReplanCache), keyed by the exact bit pattern of
// (heuristic, platform, residual apps) — names excluded, so waves of
// re-stamped template jobs ("cg#17") key identically. On a recurring
// resident shape every deterministic heuristic is served from the
// cache without a worker slot, and only the randomized heuristics
// (whose per-call substreams never repeat) are solved. Event logs are
// bit-identical to a cold race either way.
type PortfolioPolicy struct {
	engine *portfolio.Engine // the caller's pool, memoizing into cache unless full
	cache  *portfolio.Cache
	full   bool
	seed   uint64
	calls  uint64
	stats  ReplanStats
	sc     portfolio.Scenario // race input; Apps is the recycled residual buffer
	rep    portfolio.Report   // race output, recycled

	// Learned selection ("portfolio:selector"): when selCfg is set,
	// Allocate goes through a portfolio.SelectorPolicy, which solves a
	// confidently predicted winner alone — on the exact substream the
	// race would have given it — and races otherwise. A nil or empty
	// ledger predicts nothing, so the policy is then bit-identical to
	// plain "portfolio".
	selCfg *portfolio.SelectorConfig
	sel    *portfolio.SelectorPolicy
}

// NewPortfolioPolicy returns a portfolio-driven policy racing on
// engine's worker pool (nil = a private pool bounded by workers, < 1 =
// GOMAXPROCS). Whatever cache the engine has, the policy memoizes into
// its own: a simulation's plans stay out of a shared serving cache, and
// its hit/miss telemetry depends on nothing but its own event stream.
func NewPortfolioPolicy(engine *portfolio.Engine, workers int, seed uint64) *PortfolioPolicy {
	if engine == nil {
		engine = portfolio.New(portfolio.Config{Workers: workers})
	}
	p := &PortfolioPolicy{
		engine: engine,
		cache:  portfolio.NewReplanCache(),
		seed:   seed,
		sc:     portfolio.Scenario{Heuristics: onlineHeuristics()},
	}
	p.bind()
	return p
}

// bind points the policy's engine view (and selector) at its plan
// cache, or at no cache in full-replan mode.
func (p *PortfolioPolicy) bind() {
	cache := p.cache
	if p.full {
		cache = nil
	}
	p.engine = p.engine.WithCache(cache)
	if p.selCfg != nil {
		cfg := *p.selCfg
		cfg.Engine = p.engine
		p.sel = portfolio.NewSelector(cfg)
	}
}

// SetFullReplan disables (true) or re-enables (false) the plan cache,
// forcing every Allocate call through a cold race. The conform
// equivalence sweep runs both modes and compares event logs
// bit-for-bit; the ":full" policy-spec suffix exposes it on the wire.
func (p *PortfolioPolicy) SetFullReplan(full bool) {
	p.full = full
	p.bind()
}

// SetLedger switches the policy into learned-selection mode backed by
// l (nil keeps selector mode with an always-fallback empty ledger).
// The zero Thresholds means selector.DefaultThresholds(). Callers that
// parsed a "portfolio:selector" spec inject the trained ledger here —
// the ledger is runtime state, never part of the wire spec.
func (p *PortfolioPolicy) SetLedger(l *selector.Ledger, th selector.Thresholds) {
	p.selCfg = &portfolio.SelectorConfig{Ledger: l, Thresholds: th}
	p.bind()
}

// SelectorStats reports how many Allocate calls were served by the
// predicted winner versus by a race (zero unless in selector mode).
func (p *PortfolioPolicy) SelectorStats() (predictions, fallbacks uint64) {
	if p.sel == nil {
		return 0, 0
	}
	st := p.sel.Stats()
	return st.Predictions, st.Fallbacks
}

// ConfigureSelector injects a trained ledger into pol when it is a
// selector-mode portfolio policy, reporting whether it did. The
// simulators call this after ParsePolicy: the spec string selects the
// mode ("portfolio:selector"), the caller supplies the ledger.
func ConfigureSelector(pol Policy, l *selector.Ledger, th selector.Thresholds) bool {
	pp, ok := pol.(*PortfolioPolicy)
	if !ok || pp.selCfg == nil {
		return false
	}
	pp.SetLedger(l, th)
	return true
}

// ReplanStats reports the delta-rescheduling telemetry; the engine
// copies it into Result.Replan.
func (p *PortfolioPolicy) ReplanStats() ReplanStats { return p.stats.withCache(p.cache) }

// Allocate implements Policy.
func (p *PortfolioPolicy) Allocate(pl model.Platform, residents []Resident) ([]sched.Assignment, error) {
	p.calls++
	p.sc.Platform = pl
	p.sc.Apps = residualApps(p.sc.Apps, residents)
	// The engine derives heuristic hi's stream as Seed ^ (hi+1)·stride
	// with the same golden-ratio stride this package uses, so a plain
	// seed ^ calls·stride here would cancel whenever calls == hi+1 and
	// hand randomized heuristics systematically colliding streams.
	// Mixing the per-call seed through SplitMix64 (one RNG step)
	// decorrelates the two layers.
	p.sc.Seed = solve.NewRNG(p.seed ^ p.calls*policySeedStride).Uint64()
	rep := &p.rep
	if p.sel != nil {
		d, err := p.sel.Select(context.TODO(), p.sc)
		if err != nil {
			return nil, err
		}
		if d.Predicted {
			return d.Report.BestSchedule().Assignments, nil
		}
		rep = d.Report
	} else if err := p.engine.EvaluateInto(context.TODO(), &p.sc, rep); err != nil {
		return nil, err
	}
	// The call took the fast path when no deterministic heuristic had
	// to be solved.
	fast := !p.full
	for i := range rep.Results {
		if r := &rep.Results[i]; !r.Heuristic.Randomized() && !r.FromCache {
			fast = false
		}
	}
	if fast {
		p.stats.FastPath++
	} else {
		p.stats.FullSolve++
	}
	best := rep.BestResult()
	if best == nil {
		return nil, fmt.Errorf("des: no heuristic produced a feasible repartition")
	}
	return best.Schedule.Assignments, nil
}

// Name implements Policy.
func (p *PortfolioPolicy) Name() string {
	if p.selCfg != nil {
		return "portfolio:selector"
	}
	return "portfolio"
}

// NoRepartition schedules jobs in waves: when the node is idle it
// allocates the whole resident set with the wrapped heuristic and then
// freezes — jobs arriving mid-wave wait (zero allocation) until the
// wave drains. With every job present at t = 0 this reproduces the
// paper's static setting exactly; it is also the natural baseline that
// quantifies what dynamic repartitioning buys.
type NoRepartition struct {
	h     sched.Heuristic
	seed  uint64
	calls uint64
	apps  []model.Application // residual-work plan buffer, recycled
	frzn  []sched.Assignment  // frozen-wave assignment buffer, recycled
}

// NewNoRepartition returns the wave-scheduling policy around h.
func NewNoRepartition(h sched.Heuristic, seed uint64) (*NoRepartition, error) {
	if h == sched.AllProcCache {
		return nil, fmt.Errorf("des: %v is sequential and cannot drive online scheduling", h)
	}
	return &NoRepartition{h: h, seed: seed}, nil
}

// Allocate implements Policy.
func (p *NoRepartition) Allocate(pl model.Platform, residents []Resident) ([]sched.Assignment, error) {
	for _, r := range residents {
		// A wave counts as running only while some resident is actually
		// progressing: holding processors AND having a finite execution
		// time under its current allocation. Gating on Processors > 0
		// alone deadlocks the node when a resident is stuck with a
		// nonzero assignment that yields Exe = +Inf (degenerate
		// work/latency inputs): it never finishes, so the "wave" never
		// drains and every later arrival is frozen out forever. Such a
		// stuck resident instead lets the next decision point fall
		// through to a fresh wave that reschedules everything resident.
		if r.Assign.Processors > 0 && !math.IsInf(r.App.Exe(pl, r.Assign.Processors, r.Assign.CacheShare), 1) {
			// A wave is running: freeze every current allocation; new
			// arrivals keep their zero assignment and wait. The engine
			// consumes the returned slice before the next Allocate call,
			// so the buffer is safely recycled.
			asg := p.frzn
			if cap(asg) < len(residents) {
				asg = make([]sched.Assignment, len(residents))
			}
			asg = asg[:len(residents)]
			p.frzn = asg
			for i, rr := range residents {
				asg[i] = rr.Assign
			}
			return asg, nil
		}
	}
	// Node drained (or first wave): schedule everything resident.
	p.calls++
	rng := solve.NewRNG(p.seed ^ p.calls*policySeedStride)
	p.apps = residualApps(p.apps, residents)
	s, err := p.h.Schedule(pl, p.apps, rng)
	if err != nil {
		return nil, &sched.HeuristicError{Heuristic: p.h, Err: err}
	}
	if s.Sequential {
		return nil, fmt.Errorf("des: heuristic %v produced a sequential schedule", p.h)
	}
	return s.Assignments, nil
}

// Name implements Policy.
func (p *NoRepartition) Name() string { return "norepartition:" + p.h.String() }

// ParsePolicy resolves a policy specification string:
//
//	"portfolio"                race all concurrent heuristics, keep the winner
//	"portfolio:selector"       learned selection: run the ledger's predicted
//	                           winner, race only on doubt (inject the trained
//	                           ledger with ConfigureSelector; without one the
//	                           policy always races and is bit-identical to
//	                           "portfolio")
//	"<Heuristic>"              repartition with that heuristic every event
//	"norepartition[:<H>]"      wave scheduling, frozen between drains
//
// The replanning policies ("portfolio" and plain heuristics) serve
// recurring resident shapes from their plan cache by default;
// appending ":full" (e.g. "portfolio:full") forces a cold solve at
// every event, which is bit-equivalent and only useful for
// benchmarking and equivalence testing. workers bounds the portfolio
// policy's pool (< 1 = GOMAXPROCS); seed drives every randomized
// decision.
func ParsePolicy(spec string, workers int, seed uint64) (Policy, error) {
	return ParsePolicyShared(nil, spec, workers, seed)
}

// ParsePolicyShared is ParsePolicy with a caller-supplied portfolio
// engine backing a "portfolio" policy, so many policies (one per fleet
// node) can share a single worker pool instead of each building a
// private one. A nil engine gets a private pool bounded by workers; the
// engine is unused for non-portfolio policies.
func ParsePolicyShared(engine *portfolio.Engine, spec string, workers int, seed uint64) (Policy, error) {
	if base, found := strings.CutSuffix(spec, ":full"); found {
		pol, err := ParsePolicyShared(engine, base, workers, seed)
		if err != nil {
			return nil, err
		}
		fr, ok := pol.(interface{ SetFullReplan(bool) })
		if !ok {
			return nil, fmt.Errorf("des: policy %q has no plan cache to disable", base)
		}
		fr.SetFullReplan(true)
		return pol, nil
	}
	switch {
	case spec == "portfolio":
		return NewPortfolioPolicy(engine, workers, seed), nil
	case spec == "portfolio:selector":
		p := NewPortfolioPolicy(engine, workers, seed)
		p.SetLedger(nil, selector.Thresholds{})
		return p, nil
	case spec == "norepartition":
		return NewNoRepartition(sched.DominantMinRatio, seed)
	case strings.HasPrefix(spec, "norepartition:"):
		h, err := sched.ParseHeuristic(strings.TrimPrefix(spec, "norepartition:"))
		if err != nil {
			return nil, err
		}
		return NewNoRepartition(h, seed)
	default:
		h, err := sched.ParseHeuristic(spec)
		if err != nil {
			return nil, fmt.Errorf("des: unknown policy %q (want \"portfolio\", \"norepartition[:H]\" or a heuristic name): %w", spec, err)
		}
		return NewHeuristicPolicy(h, seed)
	}
}
