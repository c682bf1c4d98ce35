// Package portfolio evaluates many scheduling heuristics — and many
// scenarios — concurrently, and picks the best schedule each scenario
// admits. It is the paper's comparison methodology turned into an
// engine: where the study ranks the ten policies of Sections 5–6 across
// sweeps, the portfolio scheduler runs the whole policy set for every
// incoming (Platform, Applications) scenario on a bounded worker pool
// and serves the winner, with a full per-heuristic report for audit.
//
// Three properties make it the substrate for scale work:
//
//   - Determinism. Every heuristic's randomness is derived from the
//     scenario seed and the heuristic's position, never from execution
//     order, so concurrent and serial runs agree bit-for-bit.
//   - Bounded concurrency. One Engine owns one semaphore; heuristic ×
//     scenario tasks from any number of Evaluate/EvaluateBatch calls
//     share it, so callers can fan out freely without oversubscribing
//     the machine.
//   - Memoization. Solved (scenario, heuristic) pairs are remembered in
//     a sharded, mutex-striped cache keyed by a canonical scenario
//     hash; repeated scenarios cost one map lookup, and concurrent
//     identical requests collapse into a single computation.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/solve"
)

// seedStride separates per-heuristic RNG substreams. It matches the
// derivation the experiment sweeps have always used, so portfolio-run
// figures are bit-identical to the historical serial loops.
const seedStride = 0x9E3779B97F4A7C15

// Config parameterizes an Engine.
type Config struct {
	// Workers bounds the number of heuristic evaluations in flight at
	// once. Values < 1 default to GOMAXPROCS. One worker reproduces the
	// serial evaluation order's results exactly (as does any other
	// worker count — see the determinism property).
	Workers int
	// Cache memoizes solved (scenario, heuristic) pairs. Nil disables
	// memoization. A Cache may be shared between engines.
	Cache *Cache
	// Metrics instruments the engine (see NewMetrics). Nil disables all
	// observation: the engine then pays one nil check per site and its
	// hot path stays allocation-free.
	Metrics *Metrics
}

// Engine is a concurrent portfolio scheduler. It is safe for use from
// multiple goroutines; all evaluations share one worker pool.
type Engine struct {
	sem     chan struct{}
	cache   *Cache
	metrics *Metrics
}

// New returns an Engine with the given configuration.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	cfg.Metrics.bindCache(cfg.Cache)
	return &Engine{sem: make(chan struct{}, w), cache: cfg.Cache, metrics: cfg.Metrics}
}

// Workers reports the size of the engine's worker pool.
func (e *Engine) Workers() int { return cap(e.sem) }

// CacheStats reports the memoization cache's counters; zero if the
// engine has no cache.
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.Stats()
}

// Scenario is one scheduling problem: a platform, a workload, the set
// of heuristics to race, and the seed driving the randomized ones.
type Scenario struct {
	Platform model.Platform
	Apps     []model.Application
	// Heuristics to evaluate, in report order. Nil or empty means the
	// full extended set (the paper's ten plus SharedCache/LocalSearch).
	Heuristics []sched.Heuristic
	// Seed of the scenario's master random stream. Heuristic i draws
	// from the substream Seed ^ (i+1)·seedStride, so results do not
	// depend on which worker ran which heuristic when.
	Seed uint64
}

func (s *Scenario) heuristics() []sched.Heuristic {
	if len(s.Heuristics) == 0 {
		return sched.ExtendedHeuristics
	}
	return s.Heuristics
}

// Result is one heuristic's outcome on one scenario.
type Result struct {
	Heuristic sched.Heuristic
	// Schedule is nil when Err is non-nil. Schedules may be served from
	// the memoization cache and shared between callers: treat them as
	// immutable.
	Schedule *sched.Schedule
	Err      error
	// FromCache reports whether the schedule was served from the
	// memoization cache rather than computed by this call.
	FromCache bool
}

// Report is the full outcome of one scenario: one Result per heuristic,
// in heuristic order, plus the index of the winner.
type Report struct {
	Results []Result
	// Best indexes the feasible Result with the smallest makespan
	// (ties broken toward the earlier heuristic), or -1 if every
	// heuristic failed.
	Best int
	// Err is set when the scenario itself was invalid (bad platform or
	// application); Results is then empty.
	Err error
}

// BestResult returns the winning result, or nil if none was feasible.
func (r *Report) BestResult() *Result {
	if r.Best < 0 || r.Best >= len(r.Results) {
		return nil
	}
	return &r.Results[r.Best]
}

// BestSchedule returns the winning schedule, or nil if none was
// feasible. The schedule may be cache-shared: treat it as immutable.
func (r *Report) BestSchedule() *sched.Schedule {
	if br := r.BestResult(); br != nil {
		return br.Schedule
	}
	return nil
}

// WithCache returns a view of e that races on e's worker pool and
// reports to e's metrics but memoizes into c (nil: no memoization). An
// online simulation uses it to keep its own plan cache while sharing
// the caller's workers.
func (e *Engine) WithCache(c *Cache) *Engine {
	v := *e
	v.cache = c
	return &v
}

// Evaluate runs every heuristic of the scenario on the worker pool and
// reports all outcomes. The returned error is non-nil only for invalid
// scenarios; per-heuristic failures land in the Report.
func (e *Engine) Evaluate(s Scenario) (*Report, error) {
	return e.EvaluateContext(context.Background(), s)
}

// EvaluateContext is Evaluate under a context: cancellation abandons
// the remaining heuristics and surfaces ctx.Err() both as the call
// error and on every unevaluated Result. See EvaluateBatchContext for
// the cancellation contract.
func (e *Engine) EvaluateContext(ctx context.Context, s Scenario) (*Report, error) {
	rep := &Report{}
	err := e.EvaluateInto(ctx, &s, rep)
	return rep, err
}

// EvaluateInto is EvaluateContext writing into a caller-owned report:
// rep.Results is resized in place, reusing its capacity, so a caller
// racing scenario after scenario (the online policies, once per event)
// allocates no report structures.
func (e *Engine) EvaluateInto(ctx context.Context, sc *Scenario, rep *Report) error {
	start := e.metrics.raceStart(1)
	slab := taskSlabPool.Get().(*taskSlab)
	slab.tasks = rep.prepare(0, sc, slab.tasks)
	e.race(ctx, slab.tasks)
	slab.release()
	rep.pickBest()
	e.metrics.raceEnd(start, rep)
	if err := ctx.Err(); err != nil {
		return err
	}
	return rep.Err
}

// task is one (scenario, heuristic) evaluation cell.
type task struct {
	sc  *Scenario
	res *Result
	hi  int
	h   sched.Heuristic
	ent *cacheEntry // the cell's cache entry; nil when not memoized
}

// taskSlab recycles the task list of EvaluateBatch calls. Entries are
// zeroed before the slab returns to the pool so it never pins scenario
// or report memory.
type taskSlab struct{ tasks []task }

var taskSlabPool = sync.Pool{New: func() any { return new(taskSlab) }}

func (s *taskSlab) release() {
	clear(s.tasks)
	s.tasks = s.tasks[:0]
	taskSlabPool.Put(s)
}

// prepare resets the report for scenario si and appends one task per
// heuristic; an invalid scenario records its error and adds none.
func (r *Report) prepare(si int, sc *Scenario, tasks []task) []task {
	r.Best, r.Err = -1, nil
	r.Results = r.Results[:0]
	if err := model.ValidateAll(sc.Platform, sc.Apps); err != nil {
		r.Err = fmt.Errorf("portfolio: scenario %d: %w", si, err)
		return tasks
	}
	hs := sc.heuristics()
	r.Results = append(r.Results, make([]Result, len(hs))...)
	for hi := range hs {
		tasks = append(tasks, task{sc: sc, res: &r.Results[hi], hi: hi, h: hs[hi]})
	}
	return tasks
}

// EvaluateBatch evaluates many scenarios at once, fanning every
// (scenario, heuristic) pair out to the shared worker pool. The
// returned slice aligns with scenarios. Scenario-level validation
// failures are recorded in the corresponding Report's Err.
func (e *Engine) EvaluateBatch(scenarios []Scenario) []*Report {
	reports, _ := e.EvaluateBatchContext(context.Background(), scenarios)
	return reports
}

// EvaluateBatchContext is EvaluateBatch under a context.
//
// Memo hits are served inline; every other cell goes to the pool. The
// call spawns at most Workers-1 goroutines regardless of batch size (a
// full paper sweep is tens of thousands of tasks), and each task
// additionally holds a slot of the engine-wide semaphore, so concurrent
// EvaluateBatch calls on one engine still respect the global bound.
// Tasks are drained through an atomic cursor over a pooled slab —
// results land at fixed (scenario, heuristic) indices, so scheduling
// order never influences the output.
//
// Cancellation contract: workers poll ctx before claiming each task, so
// a cancelled batch stops within one in-flight heuristic evaluation per
// worker. The call then returns ctx.Err() alongside the reports; every
// task that never ran carries ctx.Err() as its Result.Err (cancelled
// results never shadow computed ones — pickBest skips errors). Pooled
// scratch is returned in a reusable state, and a subsequent call on a
// live context is bit-identical to one on a fresh engine.
func (e *Engine) EvaluateBatchContext(ctx context.Context, scenarios []Scenario) ([]*Report, error) {
	start := e.metrics.raceStart(len(scenarios))
	reports := make([]*Report, len(scenarios))
	slab := taskSlabPool.Get().(*taskSlab)
	for si := range scenarios {
		reports[si] = &Report{}
		slab.tasks = reports[si].prepare(si, &scenarios[si], slab.tasks)
	}
	e.race(ctx, slab.tasks)
	slab.release()
	for _, rep := range reports {
		rep.pickBest()
	}
	e.metrics.raceEnd(start, reports...)
	return reports, ctx.Err()
}

// race resolves every task into its result cell: cached outcomes
// inline, the rest on the worker pool.
func (e *Engine) race(ctx context.Context, tasks []task) {
	m := e.metrics
	if m != nil {
		m.evals.Add(uint64(len(tasks)))
		// Depth rises by the whole admission and falls once per resolved
		// task (served, computed or cancellation-filled), so it always
		// returns to its pre-call level.
		m.queueDepth.Add(int64(len(tasks)))
	}
	if e.cache != nil && ctx.Err() == nil {
		tasks = e.lookup(tasks)
	}
	e.run(ctx, tasks)
	// Tasks skipped by cancellation carry the context error so callers
	// can tell "not computed" from "computed infeasible". This runs
	// strictly after every worker exited, so the writes cannot race.
	if err := ctx.Err(); err != nil {
		for i := range tasks {
			t := &tasks[i]
			if t.res.Schedule == nil && t.res.Err == nil {
				*t.res = Result{Heuristic: t.h, Err: err}
				if m != nil {
					m.queueDepth.Dec()
				}
			}
		}
	}
}

// run computes the tasks on the worker pool: the caller drains the
// task list alongside at most Workers-1 helper goroutines.
func (e *Engine) run(ctx context.Context, tasks []task) {
	workers := min(cap(e.sem), len(tasks))
	if workers <= 1 {
		var next atomic.Int64
		e.drain(ctx, tasks, &next)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.drain(ctx, tasks, &next)
		}()
	}
	e.drain(ctx, tasks, &next)
	wg.Wait()
}

// drain claims tasks through the shared cursor until none are left or
// ctx is cancelled, holding an engine-wide semaphore slot per task.
func (e *Engine) drain(ctx context.Context, tasks []task, next *atomic.Int64) {
	m := e.metrics
	done := ctx.Done()
	for ctx.Err() == nil {
		i := int(next.Add(1)) - 1
		if i >= len(tasks) {
			return
		}
		t := &tasks[i]
		select {
		case e.sem <- struct{}{}:
		case <-done:
			return
		}
		*t.res = e.evalOne(ctx, t)
		<-e.sem
		if m != nil {
			m.queueDepth.Dec()
		}
	}
}

// lookup binds every memoized task to its cache entry — serially, in
// task order, so a cache's FIFO order never depends on worker
// interleaving — and serves the entries already computed without
// taking a worker slot. It returns the tasks left to run, compacted in
// place.
func (e *Engine) lookup(tasks []task) []task {
	m := e.metrics
	pending := tasks[:0]
	for _, t := range tasks {
		if e.cache.memoizes(t.h) {
			var start time.Time
			if m != nil {
				start = time.Now()
			}
			t.ent = e.cache.entry(t.sc.Platform, t.sc.Apps, t.h, HeuristicSeed(t.sc.Seed, t.hi))
			if t.ent.ready() {
				e.cache.hits.Add(1)
				*t.res = Result{Heuristic: t.h, Schedule: t.ent.schedule, Err: t.ent.err, FromCache: true}
				if m != nil {
					m.evalSeconds.Observe(time.Since(start).Seconds())
					m.queueDepth.Dec()
				}
				continue
			}
		}
		pending = append(pending, t)
	}
	return pending
}

// evalOne times one heuristic evaluation into the eval-latency
// histogram when metrics are on; the wall-clock read happens only on
// the enabled path, so a metrics-off run never touches the clock.
func (e *Engine) evalOne(ctx context.Context, t *task) Result {
	m := e.metrics
	if m == nil {
		return e.solveOne(ctx, t)
	}
	start := time.Now()
	res := e.solveOne(ctx, t)
	m.evalSeconds.Observe(time.Since(start).Seconds())
	return res
}

// solveOne schedules one task, through its cache entry when bound.
func (e *Engine) solveOne(ctx context.Context, t *task) Result {
	sc := t.sc
	seed := HeuristicSeed(sc.Seed, t.hi)
	if t.ent == nil {
		s, err := runHeuristic(ctx, sc.Platform, sc.Apps, t.h, seed)
		return Result{Heuristic: t.h, Schedule: s, Err: err}
	}
	s, fromCache, err := e.cache.await(ctx, t.ent, sc.Platform, sc.Apps, t.h, seed)
	return Result{Heuristic: t.h, Schedule: s, Err: err, FromCache: fromCache}
}

// heuristicErr wraps a per-heuristic failure in *sched.HeuristicError.
// Cancellation is not a property of the heuristic, so context errors
// stay bare — they mark "not computed", not "policy failed".
func heuristicErr(h sched.Heuristic, err error) error {
	if err == nil || isContextErr(err) {
		return err
	}
	return &sched.HeuristicError{Heuristic: h, Err: err}
}

// isContextErr reports whether err is a cancellation or deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// HeuristicSeed derives the RNG seed for the heuristic at index hi of a
// scenario seeded with scenarioSeed: the substream scenarioSeed ^
// (hi+1)·seedStride. It is exported as the single source of truth for
// that derivation — callers that re-solve individual heuristics outside
// the engine must reproduce the exact streams Evaluate would have
// drawn, or their results drift from the full race bit-for-bit
// determinism forbids.
func HeuristicSeed(scenarioSeed uint64, hi int) uint64 {
	return scenarioSeed ^ uint64(hi+1)*seedStride
}

// rngFor returns the heuristic's seeded stream, or nil for
// deterministic heuristics, which never read it: skipping the
// construction keeps the hot path lean without changing any schedule.
func rngFor(h sched.Heuristic, seed uint64) *solve.RNG {
	if !h.Randomized() {
		return nil
	}
	return solve.NewRNG(seed)
}

// pickBest records the feasible result with the smallest makespan,
// breaking ties toward the earlier heuristic, or -1 if none is
// feasible. Results with a NaN makespan are treated as infeasible so
// they can never shadow a finite schedule.
func (r *Report) pickBest() {
	r.Best = -1
	for i := range r.Results {
		res := &r.Results[i]
		if res.Err != nil || res.Schedule == nil || math.IsNaN(res.Schedule.Makespan) {
			continue
		}
		if r.Best < 0 || res.Schedule.Makespan < r.Results[r.Best].Schedule.Makespan {
			r.Best = i
		}
	}
}
