package portfolio

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestCacheHitAllocFree pins the memoization fast path at zero
// allocations, in both cache settings: the scenario key is encoded into
// a pooled buffer and probed with a map lookup the compiler keeps
// allocation-free, so re-serving a solved (scenario, heuristic) pair
// costs no garbage.
func TestCacheHitAllocFree(t *testing.T) {
	pl := model.TaihuLight()
	apps := workload.NPB()
	ctx := context.Background()
	for _, cache := range []*Cache{NewCache(), NewReplanCache()} {
		if _, _, err := cache.Schedule(ctx, pl, apps, sched.DominantMinRatio, 0); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(200, func() {
			s, fromCache, err := cache.Schedule(ctx, pl, apps, sched.DominantMinRatio, 0)
			if err != nil || s == nil || !fromCache {
				t.Fatal("expected a cache hit")
			}
		})
		if n != 0 {
			t.Errorf("memoized hit allocates %g times, want 0", n)
		}
	}
}

// TestMemoizedEvaluateAllocBudget pins the full engine round trip for a
// warm scenario: one Report with per-heuristic results costs a handful
// of allocations (report/result structures and the scenario slice), and
// nothing per heuristic. Budget 16 leaves slack for pool repopulation
// after GC; the steady state is ~8.
func TestMemoizedEvaluateAllocBudget(t *testing.T) {
	eng := New(Config{Workers: 1, Cache: NewCache()})
	s := Scenario{Platform: model.TaihuLight(), Apps: workload.NPB(), Seed: 42}
	if _, err := eng.Evaluate(s); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		rep, err := eng.Evaluate(s)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Best < 0 {
			t.Fatal("no feasible schedule")
		}
	})
	if n > 16 {
		t.Errorf("memoized Evaluate allocates %g times, budget 16", n)
	}
}
