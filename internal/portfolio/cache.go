package portfolio

import (
	"context"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/sched"
)

// Cache memoizes solved (scenario, heuristic) pairs behind a sharded,
// mutex-striped map. It is the repository's only plan memo: the
// serving engine and every online simulation use it, in one of two
// settings (NewCache and NewReplanCache).
//
// Entries are keyed by a canonical byte encoding of (platform,
// applications, heuristic, seed). Every numeric field the heuristics
// read contributes its exact bit pattern, so a key match certifies
// that the stored plan is bit-identical to a cold solve: every
// heuristic is a pure function of those inputs and its RNG stream.
// Application names are not part of the key — no heuristic reads them,
// and online callers re-stamp them per job ("cg#17"), which would
// otherwise defeat the memo on recurring workload shapes. The seed is
// omitted for deterministic heuristics, so e.g. DominantMinRatio on the
// same workload hits regardless of the scenario seed.
//
// Concurrent requests for the same key collapse into a single
// computation via a per-entry sync.Once. Each shard holds a bounded
// number of entries and evicts the oldest first, so a cache's content —
// and its hit/miss sequence — is a deterministic function of its
// insertion sequence. A Cache must not be copied after first use.
type Cache struct {
	shards []cacheShard
	// perShard bounds each shard's entries (FIFO eviction).
	perShard int
	// randomized memoizes randomized heuristics under their seed; when
	// false they bypass the cache (their online seeds never recur).
	randomized   bool
	hits, misses atomic.Uint64
	evictions    atomic.Uint64
}

type cacheShard struct {
	mu    sync.Mutex
	m     map[string]*cacheEntry
	order []string // keys in insertion order, oldest at head
	head  int
	spare []cacheEntry // preallocated entries, handed out in order
}

type cacheEntry struct {
	key      string // the map key, shared with the map (no extra copy)
	sh       *cacheShard
	once     sync.Once
	done     atomic.Bool // set once schedule/err are final
	schedule *sched.Schedule
	err      error
}

// Serving setting: 64 shards keep lock contention negligible at any
// realistic worker count, and 256 entries per shard (16,384 in all,
// ≈20 MB at ~1.2 KB per entry) hold a 512-body warm working set of 12
// heuristics each (6,144 entries) with room to spare.
const (
	numShards     = 64
	shardCapacity = 256
)

// replanCapacity bounds a NewReplanCache: comfortably more than the
// distinct resident-set shapes a cyclic template workload produces
// (ramp-up prefixes, template rotations, drain suffixes), small enough
// that a non-recurring stream caps out at a few hundred retained plans.
const replanCapacity = 256

// NewCache returns the serving engine's cache: every heuristic is
// memoized, randomized ones under their seed, across 64 shards of at
// most 256 entries each. Safe for concurrent use.
func NewCache() *Cache { return newCache(numShards, shardCapacity, true) }

// NewReplanCache returns the plan cache an online simulation owns: only
// deterministic heuristics are memoized (a randomized heuristic's
// per-event seed never recurs, so storing its plans would only churn
// the memo), in a single FIFO of 256 entries. Safe for
// concurrent use, so a simulation's races may run on a shared pool.
func NewReplanCache() *Cache { return newCache(1, replanCapacity, false) }

func newCache(shards, perShard int, randomized bool) *Cache {
	c := &Cache{shards: make([]cacheShard, shards), perShard: perShard, randomized: randomized}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry)
	}
	return c
}

// CacheStats are the cache's monotonic counters. A "hit" is a request
// that found its entry already computed (or in flight); a "miss" is a
// request that triggered the computation. Heuristics the cache does not
// memoize count as neither.
type CacheStats struct {
	Hits   uint64
	Misses uint64
	// Evictions counts entries dropped by the per-shard FIFO bound or
	// because their computation was abandoned by context cancellation.
	Evictions uint64
	Entries   int
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	s := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.m)
		sh.mu.Unlock()
	}
	return s
}

// memoizes reports whether h's plans go through the cache.
func (c *Cache) memoizes(h sched.Heuristic) bool {
	return c.randomized || !h.Randomized()
}

// Schedule solves h on (pl, apps) through the cache, drawing a
// randomized heuristic's stream from seed; fromCache reports a
// memoized answer. A nil cache, or a heuristic it does not memoize,
// solves directly. Failures are wrapped in *sched.HeuristicError
// (context errors stay bare). Returned schedules may be shared: treat
// them as immutable.
func (c *Cache) Schedule(ctx context.Context, pl model.Platform, apps []model.Application, h sched.Heuristic, seed uint64) (s *sched.Schedule, fromCache bool, err error) {
	if c == nil || !c.memoizes(h) {
		s, err = runHeuristic(ctx, pl, apps, h, seed)
		return s, false, err
	}
	return c.await(ctx, c.entry(pl, apps, h, seed), pl, apps, h, seed)
}

// runHeuristic is one cold heuristic run. Only randomized heuristics get an
// RNG: the deterministic ones never read it, and skipping the
// construction keeps the hot path lean without changing any schedule.
func runHeuristic(ctx context.Context, pl model.Platform, apps []model.Application, h sched.Heuristic, seed uint64) (*sched.Schedule, error) {
	s, err := h.ScheduleContext(ctx, pl, apps, rngFor(h, seed))
	return s, heuristicErr(h, err)
}

// keyBufPool recycles the byte buffers scenario keys are encoded into.
// On the lookup path the buffer is only used for the map probe (the
// compiler elides the string conversion in m[string(b)]), so memoized
// lookups allocate nothing; the key is materialized as a string only
// when a new entry is inserted.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// entry returns the entry for the pair, inserting an empty one (and
// evicting the shard's oldest beyond its bound) on first request.
func (c *Cache) entry(pl model.Platform, apps []model.Application, h sched.Heuristic, seed uint64) *cacheEntry {
	bp := keyBufPool.Get().(*[]byte)
	key := appendScenarioKey((*bp)[:0], pl, apps, h, seed)
	sh := &c.shards[shardOf(key, len(c.shards))]
	sh.mu.Lock()
	ent, ok := sh.m[string(key)]
	if !ok {
		// Entries are carved from chunks, so a miss costs one allocation
		// (its key) instead of two. Chunks fill in FIFO order, so one
		// dies soon after its last entry is evicted.
		if len(sh.spare) == 0 {
			sh.spare = make([]cacheEntry, 16)
		}
		ent = &sh.spare[0]
		sh.spare = sh.spare[1:]
		ent.key, ent.sh = string(key), sh
		c.insert(sh, ent)
	}
	sh.mu.Unlock()
	*bp = key[:0]
	keyBufPool.Put(bp)
	return ent
}

// insert adds ent to its shard, first evicting the oldest keys until
// the shard is below its bound. The caller holds sh.mu.
func (c *Cache) insert(sh *cacheShard, ent *cacheEntry) {
	for len(sh.m) >= c.perShard {
		delete(sh.m, sh.order[sh.head])
		sh.order[sh.head] = ""
		sh.head++
		c.evictions.Add(1)
	}
	// Compact once the dead prefix dominates, keeping amortized
	// insertion O(1) without unbounded slice growth.
	if sh.head > len(sh.order)/2 {
		sh.order = append(sh.order[:0], sh.order[sh.head:]...)
		sh.head = 0
	}
	sh.m[ent.key] = ent
	sh.order = append(sh.order, ent.key)
}

// ready reports whether ent holds a final, servable outcome — what a
// lookup may serve without a worker slot.
func (ent *cacheEntry) ready() bool {
	return ent.done.Load() && !isContextErr(ent.err)
}

// await returns ent's outcome, computing it at most once across all
// concurrent callers. fromCache reports whether this caller got a
// previously requested entry.
//
// Cancellation safety: a computation abandoned because its context was
// cancelled must not stick — otherwise one cancelled request would
// serve ctx.Err() to every future caller of the same scenario. When the
// computed outcome is a context error the entry is reset; a waiter
// that collapsed onto a cancelled computation retries with its own
// (still live) context instead of inheriting a stranger's cancellation.
func (c *Cache) await(ctx context.Context, ent *cacheEntry, pl model.Platform, apps []model.Application, h sched.Heuristic, seed uint64) (s *sched.Schedule, fromCache bool, err error) {
	for {
		computed := false
		ent.once.Do(func() {
			ent.schedule, ent.err = runHeuristic(ctx, pl, apps, h, seed)
			ent.done.Store(true)
			computed = true
		})
		if isContextErr(ent.err) {
			// Replace the abandoned entry with an empty one in the same
			// FIFO slot (unless a concurrent retry already did).
			sh := ent.sh
			sh.mu.Lock()
			if sh.m[ent.key] == ent {
				sh.m[ent.key] = &cacheEntry{key: ent.key, sh: sh}
				c.evictions.Add(1)
			}
			sh.mu.Unlock()
			if !computed && ctx.Err() == nil {
				// We collapsed onto someone else's cancelled computation
				// but our own context is live: compute it for real.
				ent = c.entry(pl, apps, h, seed)
				continue
			}
		}
		if computed {
			c.misses.Add(1)
		} else {
			c.hits.Add(1)
		}
		return ent.schedule, !computed, ent.err
	}
}

// scenarioKey builds the canonical key as a string; tests use it to
// reason about collisions.
func scenarioKey(pl model.Platform, apps []model.Application, h sched.Heuristic, seed uint64) string {
	return string(appendScenarioKey(nil, pl, apps, h, seed))
}

// appendScenarioKey appends the canonical byte encoding of one
// (platform, applications, heuristic, seed) cell to b: whole 64-bit
// words, every numeric field as its exact bit pattern, so distinct
// inputs cannot collide. The seed participates only for heuristics that
// actually consume randomness; names never do.
func appendScenarioKey(b []byte, pl model.Platform, apps []model.Application, h sched.Heuristic, seed uint64) []byte {
	if b == nil {
		b = make([]byte, 0, 8*(8+6*len(apps))) // heuristic + seed + platform + count + apps
	}
	b = appendU64(b, uint64(h))
	if !h.Randomized() {
		seed = 0
	}
	b = appendU64(b, seed)
	b = appendF64(b, pl.Processors, pl.CacheSize, pl.LatencyS, pl.LatencyL, pl.Alpha)
	b = appendU64(b, uint64(len(apps)))
	for _, a := range apps {
		b = appendF64(b, a.Work, a.SeqFraction, a.AccessFreq, a.Footprint, a.RefMissRate, a.RefCacheSize)
	}
	return b
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendF64(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// shardOf folds the key onto one of n shards with a word-wise
// multiply-xorshift hash and a SplitMix64 finalizer. Keys are whole
// 64-bit words (see appendScenarioKey), read eight bytes at a time;
// unlike
// hash/maphash it is unseeded, so a key lands on the same shard in
// every process (and the FIFO eviction order is reproducible).
func shardOf(key []byte, n int) int {
	if n == 1 {
		return 0
	}
	h := uint64(len(key))
	for ; len(key) >= 8; key = key[8:] {
		h ^= binary.LittleEndian.Uint64(key)
		h *= 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return int(h % uint64(n))
}
