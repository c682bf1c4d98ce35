package sched_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/portfolio"
	"repro/internal/sched"
	"repro/internal/solve"
	"repro/internal/workload"
)

// These tests pin the contract between the heuristics and the plan cache
// an online simulation replans through (portfolio.NewReplanCache): the
// deterministic heuristics are pure functions of the instance's numbers,
// so a cached plan is a certified answer, not an approximation.

func warmApps(t *testing.T, n int) []model.Application {
	t.Helper()
	apps, err := workload.Generate(workload.Config{Generator: workload.GenNPBSynth, N: n}, solve.NewRNG(11))
	if err != nil {
		t.Fatalf("generating workload: %v", err)
	}
	return apps
}

// TestScheduleWarmHitIsColdSolve is the certification property: a memo
// hit must return the exact schedule a cold solve produces — same
// struct, bit for bit — because the key covers every numeric input of
// the (pure) deterministic heuristics.
func TestScheduleWarmHitIsColdSolve(t *testing.T) {
	ctx := context.Background()
	pl := model.TaihuLight()
	apps := warmApps(t, 6)
	for _, h := range sched.ExtendedHeuristics {
		if h.Randomized() {
			continue
		}
		memo := portfolio.NewReplanCache()
		cold, err := h.Schedule(pl, apps, nil)
		if err != nil {
			t.Fatalf("%v: cold solve: %v", h, err)
		}
		first, fromMemo, err := memo.Schedule(ctx, pl, apps, h, 0)
		if err != nil {
			t.Fatalf("%v: warm solve: %v", h, err)
		}
		if fromMemo {
			t.Fatalf("%v: first warm solve claimed a memo hit", h)
		}
		second, fromMemo, err := memo.Schedule(ctx, pl, apps, h, 0)
		if err != nil {
			t.Fatalf("%v: second warm solve: %v", h, err)
		}
		if !fromMemo {
			t.Errorf("%v: second warm solve missed the memo", h)
		}
		if second != first {
			t.Errorf("%v: memo hit returned a different schedule object", h)
		}
		if !reflect.DeepEqual(cold, second) {
			t.Errorf("%v: memoized schedule differs from cold solve:\n  cold %+v\n  warm %+v", h, cold, second)
		}
	}
}

// TestPlanMemoNameInsensitive pins the memo-key contract: application
// names do not participate in the key (no heuristic reads them), so
// re-stamped job names must still hit, while a one-ulp change must miss.
func TestPlanMemoNameInsensitive(t *testing.T) {
	ctx := context.Background()
	pl := model.TaihuLight()
	apps := warmApps(t, 4)
	memo := portfolio.NewReplanCache()
	s, _, err := memo.Schedule(ctx, pl, apps, sched.DominantMinRatio, 0)
	if err != nil {
		t.Fatal(err)
	}
	renamed := append([]model.Application{}, apps...)
	for i := range renamed {
		renamed[i].Name = "renamed#42"
	}
	got, fromMemo, err := memo.Schedule(ctx, pl, renamed, sched.DominantMinRatio, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !fromMemo {
		t.Fatal("renamed apps missed the memo; the key must ignore names")
	}
	if got != s {
		t.Fatal("renamed apps hit a different plan")
	}
	// The certificate is exactness, not similarity.
	perturbed := append([]model.Application{}, apps...)
	perturbed[0].Work = math.Nextafter(perturbed[0].Work, math.Inf(1))
	if _, fromMemo, err := memo.Schedule(ctx, pl, perturbed, sched.DominantMinRatio, 0); err != nil || fromMemo {
		t.Fatalf("perturbed apps: fromMemo=%v err=%v; the key must be bit-exact", fromMemo, err)
	}
}

// TestPlanMemoRandomizedBypass: randomized heuristics are never served
// from (or stored in) the replan memo — within a simulation their seed
// changes with every event, so their plans would never recur.
func TestPlanMemoRandomizedBypass(t *testing.T) {
	ctx := context.Background()
	pl := model.TaihuLight()
	apps := warmApps(t, 4)
	memo := portfolio.NewReplanCache()
	for i := 0; i < 2; i++ {
		_, fromMemo, err := memo.Schedule(ctx, pl, apps, sched.RandomPart, 7)
		if err != nil {
			t.Fatal(err)
		}
		if fromMemo {
			t.Fatal("randomized heuristic served from the memo")
		}
	}
	if st := memo.Stats(); st.Entries != 0 || st.Hits+st.Misses != 0 {
		t.Fatalf("randomized plans reached the memo: %+v", st)
	}
}

// TestPlanMemoHitAllocs: the certified fast path must not allocate —
// it is the inner loop of high-rate online replanning.
func TestPlanMemoHitAllocs(t *testing.T) {
	ctx := context.Background()
	pl := model.TaihuLight()
	apps := warmApps(t, 6)
	memo := portfolio.NewReplanCache()
	if _, _, err := memo.Schedule(ctx, pl, apps, sched.DominantMinRatio, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, fromMemo, err := memo.Schedule(ctx, pl, apps, sched.DominantMinRatio, 0); err != nil || !fromMemo {
			t.Fatal("unexpected miss")
		}
	})
	if allocs > 0 {
		t.Errorf("memo hit allocates %.1f times per run, want 0", allocs)
	}
}
