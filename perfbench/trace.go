package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call, recorded from the benchmark's own code
// around a call into one layer's public function. Spans of one request
// share Req; Parent names the span of the layer above (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Arg    string `json:"arg,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Req    int    `json:"req"`
}

func (s *span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// reserve allocates a span id ahead of the call, so a child can name a
// parent that has not run yet.
func (t *tracer) reserve() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(id int64, name string, req int, parent int64, start, end time.Time, arg string) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Name: name, Arg: arg, Start: start.Sub(t.epoch).Nanoseconds(),
		End: end.Sub(t.epoch).Nanoseconds(), Parent: parent, Req: req})
	t.mu.Unlock()
}

func (t *tracer) begin(name string, req int, parent int64) *span {
	return &span{ID: t.reserve(), Name: name, Req: req, Parent: parent, Start: time.Since(t.epoch).Nanoseconds()}
}

func (t *tracer) end(sp *span) {
	sp.End = time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, *sp)
	t.mu.Unlock()
}

// writeNDJSON writes every span, one JSON object per line.
func (t *tracer) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the durations in µs of every span named name,
// optionally restricted to one Arg.
func (t *tracer) durations(name, arg string) []float64 {
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && (arg == "" || s.Arg == arg) {
			out = append(out, s.us())
		}
	}
	return out
}

// perReq sums the durations in µs of the spans named name by request.
func (t *tracer) perReq(name string) map[int]float64 {
	out := map[int]float64{}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			out[s.Req] += s.us()
		}
	}
	return out
}

// row is one layer of a share-of-end-to-end table.
type row struct {
	name   string
	calls  float64 // spans per request
	p50    float64 // µs, inclusive, over every span of the layer
	self   float64 // µs per request, mean
	share  float64 // self over end-to-end
	onPath bool
}

// layerTable derives per-layer self time and share of end-to-end from
// the span trees rooted at spans named root. A span's self time is its
// duration minus its children's. Where a layer runs its children on
// par workers at once (the race), its children cover 1/par of their
// summed duration of its wall time, and their own self times count at
// 1/par, so the shares of one chain add up to the whole request. Names
// in order that never appear under a root are reported off the
// request path.
func (t *tracer) layerTable(root string, order []string, par map[string]float64) []row {
	kids := map[int64][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[string]float64{}
	calls := map[string]float64{}
	var e2e float64
	nreq := 0
	// weight converts busy time to wall time: below a layer that runs
	// par children at once, each µs of work costs the request 1/par µs.
	var walk func(s *span, weight float64)
	walk = func(s *span, weight float64) {
		p := par[s.Name]
		if p == 0 {
			p = 1
		}
		covered := 0.0
		for _, c := range kids[s.ID] {
			covered += c.us()
			walk(c, weight/p)
		}
		self[s.Name] += weight * (s.us() - covered/p)
		calls[s.Name]++
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == root && s.Parent == 0 {
			walk(s, 1)
			e2e += s.us()
			nreq++
		}
	}
	var rows []row
	for _, name := range order {
		r := row{name: name, p50: median(t.durations(name, ""))}
		if nreq > 0 && calls[name] > 0 {
			r.onPath = true
			r.calls = calls[name] / float64(nreq)
			r.self = self[name] / float64(nreq)
			r.share = self[name] / e2e
		}
		rows = append(rows, r)
	}
	return rows
}

func shareOf(rows []row, name string) float64 {
	for _, r := range rows {
		if r.name == name {
			return r.share
		}
	}
	return 0
}

// tableString renders one chain's rows; shares of on-path rows add up
// to the sum line.
func tableString(title string, rows []row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  %-32s %9s %12s %12s %8s\n", "layer", "calls/req", "p50 incl us", "self us/req", "share")
	total := 0.0
	for _, r := range rows {
		if !r.onPath {
			fmt.Fprintf(&b, "  %-32s %9s %12.1f %12s %8s\n", r.name, "-", r.p50, "-", "off path")
			continue
		}
		total += r.share
		fmt.Fprintf(&b, "  %-32s %9.2f %12.1f %12.1f %7.1f%%\n", r.name, r.calls, r.p50, r.self, 100*r.share)
	}
	fmt.Fprintf(&b, "  %-32s %9s %12s %12s %7.1f%%\n", "sum", "", "", "", 100*total)
	return b.String()
}
