package main

import (
	"bytes"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/solve"
)

// conns is the generator's connection count and worker count: one
// request in flight per connection, two connections in all.
const conns = 2

// requestTimeout bounds one request; a timeout counts as a failure.
const requestTimeout = 10 * time.Second

// httpClient returns a client holding at most conns keep-alive
// connections to one host.
func httpClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// source hands out /v1/schedule request bodies. next is safe for
// concurrent use and returns the body's id, which the correctness check
// uses to recompute the expected response.
type source interface {
	next() (id int, body []byte, err error)
}

// record is one attempted request.
type record struct {
	id     int
	status int // 0 on a transport error or timeout
	hash   uint64
	lat    time.Duration // from when the request was due to its last byte
	// backlog is how many requests were due but not yet sent when this
	// one was sent (open loop only).
	backlog int
}

func post(hc *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

func hashOf(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// target is a daemon endpoint the generator drives.
type target struct {
	hc   *http.Client
	base string
	// spans, when non-nil, records one span per request.
	spans *tracer
}

func (t *target) send(id int, body []byte, due time.Time) record {
	var sp *span
	if t.spans != nil {
		sp = t.spans.begin("http.loopback", id, 0)
	}
	st, resp, err := post(t.hc, t.base+pathSchedule, body)
	end := time.Now()
	if sp != nil {
		t.spans.end(sp)
	}
	r := record{id: id, lat: end.Sub(due)}
	if err == nil {
		r.status, r.hash = st, hashOf(resp)
	}
	return r
}

// phase is the outcome of one load phase.
type phase struct {
	records []record
	elapsed time.Duration
	late    []float64 // ms a worker woke after a due time it had waited for
	backlog int       // most requests due but not yet sent at one instant
}

func (p *phase) ok() int { return okCount(p.records) }

func okCount(recs []record) int {
	n := 0
	for _, r := range recs {
		if r.status == http.StatusOK {
			n++
		}
	}
	return n
}

func (p *phase) failFrac() float64 {
	if len(p.records) == 0 {
		return 1
	}
	return 1 - float64(p.ok())/float64(len(p.records))
}

// latMS returns the latencies of successful requests in ms.
func (p *phase) latMS() []float64 { return latMS(p.records) }

func latMS(recs []record) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		if r.status == http.StatusOK {
			out = append(out, float64(r.lat)/1e6)
		}
	}
	return out
}

// closedLoop sends n requests keeping conns in flight: each worker
// sends its next request as soon as the previous one completes.
func closedLoop(t *target, src source, n int) (*phase, error) {
	recs := make([]record, n)
	var cursor atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(cursor.Add(1)) - 1
				if k >= n {
					return
				}
				id, body, err := src.next()
				if err != nil {
					errMu.Lock()
					firstErr = err
					errMu.Unlock()
					recs[k] = record{id: -1}
					continue
				}
				recs[k] = t.send(id, body, time.Now())
			}
		}()
	}
	wg.Wait()
	return &phase{records: recs, elapsed: time.Since(start)}, firstErr
}

// poissonOffsets returns n Poisson arrival offsets at rate per second.
func poissonOffsets(rate float64, n int, seed uint64) []time.Duration {
	rng := solve.NewRNG(seed)
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += -math.Log(1-rng.Float64()) / rate
		out[i] = time.Duration(t * 1e9)
	}
	return out
}

// sleep blocks the calling thread in nanosleep(2). time.Sleep parks
// the goroutine on the runtime's netpoller, whose millisecond timeout
// wakes sub-millisecond sleeps up to a millisecond late; the kernel's
// high-resolution timer wakes within tens of microseconds.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// openLoop sends n requests on a Poisson schedule at rate per second,
// whatever the daemon's state. Each latency runs from the request's
// due time, so time spent queued in the generator behind a busy
// connection counts.
func openLoop(t *target, src source, rate float64, n int, seed uint64) (*phase, error) {
	offs := poissonOffsets(rate, n, seed)
	recs := make([]record, n)
	late := make([][]float64, conns)
	var cursor atomic.Int64
	var maxBacklog atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(cursor.Add(1)) - 1
				if k >= n {
					return
				}
				id, body, err := src.next()
				if err != nil {
					errMu.Lock()
					firstErr = err
					errMu.Unlock()
					recs[k] = record{id: -1}
					continue
				}
				due := start.Add(offs[k])
				if wait := time.Until(due); wait > 0 {
					sleep(wait)
					late[w] = append(late[w], float64(time.Since(due))/1e6)
				}
				// Requests already due but not yet claimed by a worker.
				backlog := sort.Search(n, func(i int) bool { return offs[i] > time.Since(start) }) - k - 1
				for cur := maxBacklog.Load(); int64(backlog) > cur; cur = maxBacklog.Load() {
					if maxBacklog.CompareAndSwap(cur, int64(backlog)) {
						break
					}
				}
				recs[k] = t.send(id, body, due)
				recs[k].backlog = max(backlog, 0)
			}
		}(w)
	}
	wg.Wait()
	p := &phase{records: recs, elapsed: time.Since(start), backlog: int(maxBacklog.Load())}
	for _, l := range late {
		p.late = append(p.late, l...)
	}
	return p, firstErr
}

// backlogGrew reports whether the generator's backlog grew steadily
// over the phase: the median backlog met by each quarter of the
// requests exceeds the previous quarter's, and the last quarter's
// exceeds the first's by more than 1% of the phase's requests (and more
// than 2·conns). Above capacity the backlog grows by the excess rate
// for the whole phase. A stall of the daemon or the host raises it in
// one or two quarters and then drains; comparing only the first and
// last quarter counted a stall late in the phase as growth.
func (p *phase) backlogGrew() bool {
	k := len(p.records) / 4
	if k == 0 {
		return false
	}
	q := make([]float64, 4)
	for i := range q {
		b := make([]float64, k)
		for j, r := range p.records[i*k : (i+1)*k] {
			b[j] = float64(r.backlog)
		}
		q[i] = median(b)
	}
	limit := max(2*conns, len(p.records)/100)
	return q[0] < q[1] && q[1] < q[2] && q[2] < q[3] && q[3] > q[0]+float64(limit)
}

// windowQuantile splits the records, in schedule order, into w equal
// windows, takes each window's q-quantile latency, and returns the
// over-quantile of those values. Summarising windows rather than pooling
// them keeps a stall of the host, which lands in a few windows, from
// setting the result.
func windowQuantile(recs []record, w int, q, over float64) float64 {
	return quantile(windowQuantiles(recs, w, q), over)
}

// windowQuantiles returns each window's q-quantile latency.
func windowQuantiles(recs []record, w int, q float64) []float64 {
	var qs []float64
	size := len(recs) / w
	for i := 0; i < w; i++ {
		qs = append(qs, quantile(latMS(recs[i*size:(i+1)*size]), q))
	}
	return qs
}
