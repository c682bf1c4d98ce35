package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/genscen"
	"repro/internal/model"
	"repro/internal/solve"
)

// Input generation. Every request body is a pure function of the
// benchmark seed and the request's index, so one seed reproduces the
// exact byte stream the daemon sees and two seeds differ.

// Stream salts keep the cold, warm and fleet streams of one seed apart.
const (
	saltCold  = 0xC01D
	saltWarm  = 0x3A53
	saltFleet = 0xF1EE
)

// coldFamilies are the genscen families the schedule bodies rotate
// through: the three regimes the heuristics were designed for.
var coldFamilies = []genscen.Family{genscen.AmdahlMix, genscen.CacheBound, genscen.LatencyDominated}

// scheduleApps bounds the application count of a schedule body.
var scheduleApps = genscen.Config{MinApps: 6, MaxApps: 12}

// warmPoolSize is the number of distinct bodies the schedule-warm
// workload cycles through. All of them are solved during set-up.
const warmPoolSize = 512

// Fleet specs: 4 portfolio nodes sharing each template set, 64 Poisson
// arrivals, templates drawn fresh per request.
const (
	fleetNodes       = 4
	fleetMaxResident = 8
	fleetArrivals    = 64
	// fleetLoad is the offered load as a fraction of the fleet's
	// processor capacity: high enough that nodes share and replan,
	// low enough that queues drain.
	fleetLoad = 0.8
)

var fleetApps = genscen.Config{MinApps: 3, MaxApps: 6}

// streamSeed derives the genscen seed of request i of a stream. The
// result is never 0, because a zero seed in a body would let the
// daemon substitute a tenant seed.
func streamSeed(seed uint64, salt uint64, i int) uint64 {
	v := solve.NewRNG(seed*0xD1B54A32D192ED03 ^ salt*0x9E3779B97F4A7C15 ^ uint64(i)*0xBF58476D1CE4E5B9).Uint64()
	if v == 0 {
		v = 1
	}
	return v
}

// wireBody is the /v1/schedule request body. It mirrors
// serve.ScenarioWire's fields so the daemon decodes it as a client's
// body would be decoded.
type wireBody struct {
	Platform *des.PlatformSpec `json:"platform"`
	Apps     []des.AppSpec     `json:"apps"`
	Seed     uint64            `json:"seed"`
}

func platformSpec(pl model.Platform) *des.PlatformSpec {
	return &des.PlatformSpec{
		Processors: pl.Processors, CacheSize: pl.CacheSize,
		LatencyS: pl.LatencyS, LatencyL: pl.LatencyL, Alpha: pl.Alpha,
	}
}

func appSpecs(apps []model.Application) []des.AppSpec {
	out := make([]des.AppSpec, len(apps))
	for i, a := range apps {
		out[i] = des.AppSpec{
			Name: a.Name, Work: a.Work, Seq: a.SeqFraction, Freq: a.AccessFreq,
			MissRate: a.RefMissRate, RefCache: a.RefCacheSize, Footprint: a.Footprint,
		}
	}
	return out
}

// scheduleBody renders request i of the salted schedule stream.
func scheduleBody(seed, salt uint64, i int) ([]byte, error) {
	gs := streamSeed(seed, salt, i)
	in, err := genscen.Generate(coldFamilies[i%len(coldFamilies)], gs, scheduleApps)
	if err != nil {
		return nil, err
	}
	return json.Marshal(wireBody{Platform: platformSpec(in.Platform), Apps: appSpecs(in.Apps), Seed: gs})
}

// coldBody is request i of schedule-cold: distinct for every i.
func coldBody(seed uint64, i int) ([]byte, error) { return scheduleBody(seed, saltCold, i) }

// warmPool is the fixed body pool of schedule-warm.
func warmPool(seed uint64) ([][]byte, error) {
	pool := make([][]byte, warmPoolSize)
	for i := range pool {
		b, err := scheduleBody(seed, saltWarm, i)
		if err != nil {
			return nil, err
		}
		pool[i] = b
	}
	return pool, nil
}

// fleetSpec is spec i of the traced run's /v1/simulate-fleet ladder: a
// fresh template set per spec, cycled by a Poisson stream over four
// identical portfolio nodes.
func fleetSpec(seed uint64, i int) (*fleet.Spec, error) {
	gs := streamSeed(seed, saltFleet, i)
	in, err := genscen.Generate(coldFamilies[i%len(coldFamilies)], gs, fleetApps)
	if err != nil {
		return nil, err
	}
	// Offer fleetLoad of the fleet's capacity: one node runs about
	// 1/meanExe jobs per unit time when every job gets the whole node.
	mean := 0.0
	for _, a := range in.Apps {
		mean += a.Exe(in.Platform, in.Platform.Processors, 1)
	}
	mean /= float64(len(in.Apps))
	nodes := make([]fleet.NodeSpec, fleetNodes)
	for k := range nodes {
		nodes[k] = fleet.NodeSpec{Platform: platformSpec(in.Platform), Policy: "portfolio", MaxResident: fleetMaxResident}
	}
	sp := &fleet.Spec{
		Nodes: nodes,
		Apps:  appSpecs(in.Apps),
		Arrivals: des.ArrivalSpec{
			Process: "poisson", N: fleetArrivals,
			Rate: fleetLoad * fleetNodes / mean,
		},
		Seed: gs,
	}
	if err := sp.Validate(); err != nil {
		return nil, fmt.Errorf("fleet spec %d: %w", i, err)
	}
	return sp, nil
}

func fleetBody(seed uint64, i int) ([]byte, error) {
	sp, err := fleetSpec(seed, i)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sp)
}

// decodeFleet parses a fleet body back into its spec.
func decodeFleet(body []byte) (*fleet.Spec, error) {
	return fleet.DecodeSpec(bytes.NewReader(body))
}
