package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	repro "repro"
	"repro/internal/serve"
)

// Request sources. Each hands out the bodies of one workload; the ids
// they return let the correctness check regenerate any body.

const (
	pathSchedule = "/v1/schedule"
	pathFleet    = "/v1/simulate-fleet"
)

// streamSrc serves request i of a generated stream as its i-th body, so
// no body repeats within a run.
type streamSrc struct {
	seed uint64
	n    atomic.Int64
	gen  func(seed uint64, i int) ([]byte, error)
}

func (s *streamSrc) next() (int, []byte, error) {
	i := int(s.n.Add(1) - 1)
	b, err := s.gen(s.seed, i)
	return i, b, err
}

func (s *streamSrc) body(id int) ([]byte, error) { return s.gen(s.seed, id) }

// poolSrc cycles through a fixed pool of bodies.
type poolSrc struct {
	pool [][]byte
	n    atomic.Int64
}

func (s *poolSrc) next() (int, []byte, error) {
	i := int(s.n.Add(1)-1) % len(s.pool)
	return i, s.pool[i], nil
}

func (s *poolSrc) body(id int) ([]byte, error) { return s.pool[id], nil }

// expectSchedule recomputes the /v1/schedule response for body through
// the public API: a fresh client with the body's pinned seed, the full
// race, and the service's own wire rendering.
func expectSchedule(body []byte) ([]byte, error) {
	sc, err := decodeSchedule(body)
	if err != nil {
		return nil, err
	}
	c := repro.NewClient(repro.WithSeed(sc.Seed), repro.WithWorkers(1))
	rep, err := c.Evaluate(context.Background(), sc)
	if err != nil {
		return nil, err
	}
	best := rep.BestResult()
	if best == nil {
		return nil, repro.ErrInfeasible
	}
	return encodeLine(serve.ScheduleOf(sc, best))
}

func decodeSchedule(body []byte) (repro.PortfolioScenario, error) {
	var sj serve.ScenarioWire
	if err := json.Unmarshal(body, &sj); err != nil {
		return repro.PortfolioScenario{}, err
	}
	return sj.Scenario(serve.Defaults{Platform: repro.TaihuLight()})
}

// encodeLine renders v exactly as the service writes a response: JSON
// plus a newline.
func encodeLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// verify recomputes the expected response of every distinct body among
// the successful records and counts the responses that differ from it
// in any byte. Bodies are recomputed on conns goroutines.
func verify(recs []record, body func(id int) ([]byte, error), expect func([]byte) ([]byte, error)) (wrong int, err error) {
	want := map[int]uint64{}
	for _, r := range recs {
		if r.status == http.StatusOK {
			want[r.id] = 0
		}
	}
	ids := make([]int, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	hashes := make([]uint64, len(ids))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	var errMu sync.Mutex
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(cursor.Add(1) - 1)
				if k >= len(ids) {
					return
				}
				b, e := body(ids[k])
				if e == nil {
					b, e = expect(b)
				}
				if e != nil {
					errMu.Lock()
					err = fmt.Errorf("recomputing body %d: %w", ids[k], e)
					errMu.Unlock()
					return
				}
				hashes[k] = hashOf(b)
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return 0, err
	}
	for k, id := range ids {
		want[id] = hashes[k]
	}
	for _, r := range recs {
		if r.status == http.StatusOK && r.hash != want[r.id] {
			wrong++
		}
	}
	return wrong, nil
}
