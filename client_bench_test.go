package repro

import (
	"context"
	"testing"
)

// Memoization in numbers: a long-lived client serves a repeated
// workload from its cache with one probe per heuristic, while a fresh
// client per call recomputes all twelve heuristics every time.

func benchWorkload() ([]Application, Platform) {
	apps := NPB()
	for i := range apps {
		apps[i].SeqFraction = 0.05
	}
	return apps, TaihuLight()
}

// BenchmarkClientBestTransient builds a fresh client (engine and cache)
// per call — the comparison baseline for BenchmarkClientBestMemoized.
func BenchmarkClientBestTransient(b *testing.B) {
	apps, pl := benchWorkload()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := NewClient(WithSeed(42)).Best(ctx, pl, apps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientBestMemoized is Client.Best on a long-lived client:
// repeat calls hit its memoization cache.
func BenchmarkClientBestMemoized(b *testing.B) {
	apps, pl := benchWorkload()
	c := NewClient(WithSeed(42))
	ctx := context.Background()
	if _, _, err := c.Best(ctx, pl, apps); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Best(ctx, pl, apps); err != nil {
			b.Fatal(err)
		}
	}
}
