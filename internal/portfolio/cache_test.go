package portfolio

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/solve"
	"repro/internal/workload"
)

// TestCacheStressConcurrent hammers one shared cache from many
// goroutines mixing repeated and fresh scenarios, so `go test -race`
// exercises the striped locks, the per-entry sync.Once collapse and the
// atomic counters under real contention. Beyond being race-clean, the
// accounting must balance: hits+misses equals total requests, and every
// distinct key is computed exactly once.
func TestCacheStressConcurrent(t *testing.T) {
	const (
		goroutines = 32
		iterations = 40
	)
	cache := NewCache()
	eng := New(Config{Workers: runtime.GOMAXPROCS(0), Cache: cache})

	// A small pool of scenarios so goroutines collide on the same keys;
	// every scenario restricted to cheap heuristics to keep the test
	// fast under -race.
	hs := []sched.Heuristic{sched.DominantMinRatio, sched.Fair, sched.ZeroCache, sched.RandomPart}
	base := testScenarios(t, 4)
	for i := range base {
		base[i].Heuristics = hs
	}

	want := make(map[int][]float64, len(base))
	for i, sc := range base {
		rep, err := New(Config{Workers: 1}).Evaluate(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			want[i] = append(want[i], r.Schedule.Makespan)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := solve.NewRNG(uint64(g))
			for it := 0; it < iterations; it++ {
				si := rng.Intn(len(base))
				rep, err := eng.Evaluate(base[si])
				if err != nil {
					errs <- err
					return
				}
				for hi, r := range rep.Results {
					if r.Err != nil {
						errs <- r.Err
						return
					}
					if r.Schedule.Makespan != want[si][hi] {
						t.Errorf("scenario %d %v: makespan %v, want %v",
							si, r.Heuristic, r.Schedule.Makespan, want[si][hi])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := cache.Stats()
	total := uint64(goroutines * iterations * len(hs))
	if st.Hits+st.Misses != total {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d requests", st.Hits, st.Misses, st.Hits+st.Misses, total)
	}
	// Distinct keys: deterministic heuristics are seed-independent, so
	// each of the 4 scenarios contributes 3 deterministic entries plus
	// one seeded RandomPart entry.
	if wantEntries := len(base) * len(hs); st.Entries != wantEntries {
		t.Fatalf("cache holds %d entries, want %d", st.Entries, wantEntries)
	}
	if st.Misses != uint64(st.Entries) {
		t.Fatalf("%d misses for %d entries: some key was computed twice", st.Misses, st.Entries)
	}
}

// TestCacheSharedBetweenEngines checks that two engines with the same
// cache share memoized schedules.
func TestCacheSharedBetweenEngines(t *testing.T) {
	cache := NewCache()
	sc := Scenario{Platform: model.TaihuLight(), Apps: workload.NPB(), Seed: 21}
	if _, err := New(Config{Workers: 2, Cache: cache}).Evaluate(sc); err != nil {
		t.Fatal(err)
	}
	rep, err := New(Config{Workers: 2, Cache: cache}).Evaluate(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if !r.FromCache {
			t.Fatalf("%v recomputed despite shared cache", r.Heuristic)
		}
	}
}

// TestCacheShardSpread sanity-checks the word-wise shard hash: distinct
// keys must not all collapse onto one shard.
func TestCacheShardSpread(t *testing.T) {
	apps := workload.NPB()
	pl := model.TaihuLight()
	shards := map[int]bool{}
	for i := 0; i < 64; i++ {
		p := pl
		p.Processors = float64(i + 1)
		shards[shardOf(appendScenarioKey(nil, p, apps, sched.Fair, 0), numShards)] = true
	}
	if len(shards) < 8 {
		t.Fatalf("64 distinct keys landed on only %d shards", len(shards))
	}
}

// TestCacheFIFOEviction: a cache caps its retained plans and evicts the
// oldest first, so its content is a deterministic function of the
// insertion sequence.
func TestCacheFIFOEviction(t *testing.T) {
	pl := model.TaihuLight()
	c := NewReplanCache()
	mk := func(w int) []model.Application {
		a := workload.NPB()[:1]
		a[0].Work = float64(w)
		return a
	}
	const n = replanCapacity + 2
	ctx := context.Background()
	for w := 1; w <= n; w++ {
		if _, fromCache, err := c.Schedule(ctx, pl, mk(w), sched.Fair, 0); err != nil || fromCache {
			t.Fatalf("work %d: fromCache=%v err=%v on first solve", w, fromCache, err)
		}
	}
	if st := c.Stats(); st.Entries != replanCapacity || st.Evictions != 2 {
		t.Fatalf("stats %+v, want %d entries and 2 evictions", st, replanCapacity)
	}
	// Oldest two evicted, everything newer retained.
	for w := 1; w <= n; w++ {
		_, ok := c.shards[0].m[scenarioKey(pl, mk(w), sched.Fair, 0)]
		if want := w > 2; ok != want {
			t.Errorf("work %d: retained=%v, want %v", w, ok, want)
		}
	}
}

// TestCacheHoldsWarmWorkingSet: the serving cache's bound sits well
// above a 512-body pool raced by all 12 heuristics (6,144 entries, the
// benchmark's warm working set): none of it is evicted, on any shard.
func TestCacheHoldsWarmWorkingSet(t *testing.T) {
	c := NewCache()
	pl := model.TaihuLight()
	const bodies = 512
	for b := 0; b < bodies; b++ {
		apps, err := workload.Generate(workload.Config{Generator: workload.GenNPBSynth, N: 2 + b%7}, solve.NewRNG(uint64(b)))
		if err != nil {
			t.Fatal(err)
		}
		for hi, h := range sched.ExtendedHeuristics {
			c.entry(pl, apps, h, HeuristicSeed(uint64(b), hi))
		}
	}
	want := bodies * len(sched.ExtendedHeuristics)
	if st := c.Stats(); st.Entries != want || st.Evictions != 0 {
		t.Fatalf("stats %+v, want %d entries and no evictions", st, want)
	}
}
