package selector

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Schema is the versioned identifier of the ledger's JSON form. It
// covers the bucket grid too (see Features.Bucket): a ledger trained
// under one grid is meaningless under another, so grid changes must
// bump this string and old files are rejected on load instead of
// silently mispredicting.
const Schema = "repro-ledger/v1"

// maxMargins caps the per-(bucket, heuristic) margin reservoir. The
// first maxMargins observations are kept and later ones only update
// the counters — a deterministic "first N" policy, so a ledger trained
// by a deterministic sweep is bit-identical at any worker count.
const maxMargins = 64

// Cell is the ledger's aggregate for one (bucket, heuristic) pair:
// how many races the heuristic entered, how many it won, and a bounded
// sample of its margins (makespan over the race winner's makespan,
// 1.0 when it won).
type Cell struct {
	Races   int       `json:"races"`
	Wins    int       `json:"wins"`
	Margins []float64 `json:"margins,omitempty"`
}

// MedianMargin is the cell's robust predicted gap: the median of the
// recorded margins, or NaN when none were recorded.
func (c Cell) MedianMargin() float64 { return stats.Median(c.Margins) }

// WinRate is Wins/Races, or 0 when the cell is empty.
func (c Cell) WinRate() float64 {
	if c.Races == 0 {
		return 0
	}
	return float64(c.Wins) / float64(c.Races)
}

// Ledger accumulates race outcomes per (feature bucket, heuristic). It
// is not safe for concurrent mutation; the portfolio policy serializes
// writes behind its own lock.
type Ledger struct {
	buckets map[string]map[string]*Cell
}

// New returns an empty ledger.
func New() *Ledger {
	return &Ledger{buckets: make(map[string]map[string]*Cell)}
}

// RaceRecord is one heuristic's outcome in one race — the ledger's
// NDJSON ingest format, emitted by `cosched -portfolio -telemetry` and
// consumed by `ledger train`. Margin is the heuristic's makespan
// divided by the race winner's (1.0 for the winner itself).
type RaceRecord struct {
	Bucket    string  `json:"bucket"`
	Heuristic string  `json:"heuristic"`
	Win       bool    `json:"win"`
	Margin    float64 `json:"margin"`
}

func (rr RaceRecord) validate() (sched.Heuristic, error) {
	if rr.Bucket == "" {
		return 0, &model.ValidationError{Field: "ledger.record.bucket", Reason: "empty feature bucket"}
	}
	h, err := sched.ParseHeuristic(rr.Heuristic)
	if err != nil {
		return 0, &model.ValidationError{Field: "ledger.record.heuristic", Value: rr.Heuristic, Reason: "unknown heuristic"}
	}
	if err := validMargin(rr.Margin); err != nil {
		return 0, err
	}
	return h, nil
}

func validMargin(m float64) error {
	if math.IsNaN(m) || math.IsInf(m, 0) || m < 1 {
		return &model.ValidationError{Field: "ledger.margin", Value: m, Reason: "margin must be finite and >= 1"}
	}
	return nil
}

// Ingest records one RaceRecord, validating it first: unknown
// heuristic names and non-finite margins are *model.ValidationError.
func (l *Ledger) Ingest(rr RaceRecord) error {
	h, err := rr.validate()
	if err != nil {
		return err
	}
	l.add(rr.Bucket, h, rr.Win, rr.Margin)
	return nil
}

func (l *Ledger) add(bucket string, h sched.Heuristic, win bool, margin float64) {
	cells := l.buckets[bucket]
	if cells == nil {
		cells = make(map[string]*Cell)
		l.buckets[bucket] = cells
	}
	name := h.String()
	c := cells[name]
	if c == nil {
		c = &Cell{}
		cells[name] = c
	}
	c.Races++
	if win {
		c.Wins++
	}
	if len(c.Margins) < maxMargins {
		c.Margins = append(c.Margins, margin)
	}
}

// Outcome is one heuristic's result in a finished race, as the caller
// observed it. OK is false for infeasible or failed evaluations, which
// enter no records.
type Outcome struct {
	Heuristic sched.Heuristic
	Makespan  float64
	OK        bool
}

// Race converts a finished race into its ledger records. The winner is
// the minimum finite makespan, ties broken toward the earliest outcome
// — the same rule the portfolio engine's winner selection applies — so the records
// agree with the report the caller already served. Outcomes that are
// not OK, or whose margin would be non-finite, yield no record.
func Race(bucket string, outs []Outcome) []RaceRecord {
	best := -1
	for i, o := range outs {
		if !o.OK || math.IsNaN(o.Makespan) || math.IsInf(o.Makespan, 0) {
			continue
		}
		if best < 0 || o.Makespan < outs[best].Makespan {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	bm := outs[best].Makespan
	var recs []RaceRecord
	for i, o := range outs {
		if !o.OK {
			continue
		}
		margin := 1.0
		if i != best && bm > 0 {
			margin = o.Makespan / bm
		}
		if validMargin(margin) != nil {
			continue
		}
		recs = append(recs, RaceRecord{
			Bucket:    bucket,
			Heuristic: o.Heuristic.String(),
			Win:       i == best,
			Margin:    margin,
		})
	}
	return recs
}

// Observe ingests every record of one finished race.
func (l *Ledger) Observe(bucket string, outs []Outcome) {
	for _, rr := range Race(bucket, outs) {
		// Records built by Race are valid by construction.
		h, _ := sched.ParseHeuristic(rr.Heuristic)
		l.add(rr.Bucket, h, rr.Win, rr.Margin)
	}
}

// Prediction is the ledger's answer for one bucket: the heuristic
// predicted to win, with the evidence behind the call.
type Prediction struct {
	Heuristic sched.Heuristic
	Bucket    string
	Races     int     // races the predicted winner has entered in this bucket
	Wins      int     // ... and won
	WinRate   float64 // Wins / Races
	Gap       float64 // predicted margin vs the race winner (median, >= 1)
	Advantage float64 // runner-up's predicted gap over the winner's (+Inf with no runner-up)
}

// Thresholds gates when a prediction is confident enough to skip the
// full race. Zero values are permissive; DefaultThresholds returns the
// committed defaults.
type Thresholds struct {
	MinRaces     int     // evidence floor for the predicted winner's cell
	MinWinRate   float64 // the predicted winner must win at least this often
	MaxGap       float64 // predicted median margin must not exceed this (0 = no cap)
	MinAdvantage float64 // runner-up's gap must exceed the winner's by this factor
}

// DefaultThresholds is the committed confidence gate: at least 3 races
// of evidence, a majority win rate, and a predicted gap within 1%.
func DefaultThresholds() Thresholds {
	return Thresholds{MinRaces: 3, MinWinRate: 0.5, MaxGap: 1.01, MinAdvantage: 1.0}
}

// Confident reports whether the prediction clears every threshold.
func (p Prediction) Confident(th Thresholds) bool {
	if p.Races < th.MinRaces {
		return false
	}
	if p.WinRate < th.MinWinRate {
		return false
	}
	if th.MaxGap > 0 && !(p.Gap <= th.MaxGap) {
		return false
	}
	return p.Advantage >= th.MinAdvantage
}

// Predict returns the candidate with the smallest predicted margin in
// the bucket (ties: higher win rate, then earlier candidate). The
// second return is false when no candidate has any recorded evidence.
// The choice is a pure function of (ledger, bucket, candidates), so
// selection is bit-deterministic at any worker count.
func (l *Ledger) Predict(bucket string, candidates []sched.Heuristic) (Prediction, bool) {
	cells := l.buckets[bucket]
	if cells == nil {
		return Prediction{}, false
	}
	win, runner := -1, math.NaN()
	var winGap, winRate float64
	for i, h := range candidates {
		c := cells[h.String()]
		if c == nil || c.Races == 0 || len(c.Margins) == 0 {
			continue
		}
		gap, rate := c.MedianMargin(), c.WinRate()
		better := win < 0 || gap < winGap || (gap == winGap && rate > winRate)
		if better {
			if win >= 0 && (math.IsNaN(runner) || winGap < runner) {
				runner = winGap
			}
			win, winGap, winRate = i, gap, rate
		} else if math.IsNaN(runner) || gap < runner {
			runner = gap
		}
	}
	if win < 0 {
		return Prediction{}, false
	}
	c := cells[candidates[win].String()]
	p := Prediction{
		Heuristic: candidates[win],
		Bucket:    bucket,
		Races:     c.Races,
		Wins:      c.Wins,
		WinRate:   winRate,
		Gap:       winGap,
		Advantage: math.Inf(1),
	}
	if !math.IsNaN(runner) && winGap > 0 {
		p.Advantage = runner / winGap
	}
	return p, true
}

// Merge folds other into l: counters add, margin reservoirs concatenate
// up to the cap. Buckets only in other are copied.
func (l *Ledger) Merge(other *Ledger) {
	for bucket, cells := range other.buckets {
		for name, c := range cells {
			h, err := sched.ParseHeuristic(name)
			if err != nil {
				continue // foreign ledgers are validated on load; belt and braces
			}
			dst := l.buckets[bucket]
			if dst == nil {
				dst = make(map[string]*Cell)
				l.buckets[bucket] = dst
			}
			d := dst[h.String()]
			if d == nil {
				d = &Cell{}
				dst[h.String()] = d
			}
			d.Races += c.Races
			d.Wins += c.Wins
			for _, m := range c.Margins {
				if len(d.Margins) >= maxMargins {
					break
				}
				d.Margins = append(d.Margins, m)
			}
		}
	}
}

// Buckets returns the bucket keys in sorted order.
func (l *Ledger) Buckets() []string {
	out := make([]string, 0, len(l.buckets))
	for b := range l.buckets {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Cell returns the aggregate for (bucket, h) and whether it exists.
// The returned cell is a copy; its Margins slice is shared and must be
// treated as read-only.
func (l *Ledger) Cell(bucket string, h sched.Heuristic) (Cell, bool) {
	c := l.buckets[bucket][h.String()]
	if c == nil {
		return Cell{}, false
	}
	return *c, true
}

// Races returns the total race count across every cell (each race
// increments every participating heuristic's cell once).
func (l *Ledger) Races() int {
	n := 0
	for _, cells := range l.buckets {
		for _, c := range cells {
			n += c.Races
		}
	}
	return n
}

// ledgerJSON is the versioned on-disk form (runs/ledger.json).
type ledgerJSON struct {
	Schema  string                      `json:"schema"`
	Buckets map[string]map[string]*Cell `json:"buckets"`
}

// Save writes the ledger as indented JSON. Map keys serialize sorted,
// so the bytes are a canonical function of the ledger's contents —
// Fingerprint and the conform digests rely on that.
func (l *Ledger) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ledgerJSON{Schema: Schema, Buckets: l.buckets})
}

// Load parses and validates a ledger. Schema mismatches, unknown
// heuristic names, non-finite or sub-1 margins, and inconsistent
// counters are all *model.ValidationError — a corrupt or stale ledger
// must fail loudly, not mispredict quietly.
func Load(r io.Reader) (*Ledger, error) {
	var lj ledgerJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&lj); err != nil {
		return nil, fmt.Errorf("selector: parsing ledger: %w", err)
	}
	if lj.Schema != Schema {
		return nil, &model.ValidationError{Field: "ledger.schema", Value: lj.Schema, Reason: fmt.Sprintf("unsupported schema (want %q)", Schema)}
	}
	l := New()
	for bucket, cells := range lj.Buckets {
		if bucket == "" {
			return nil, &model.ValidationError{Field: "ledger.buckets", Reason: "empty feature bucket key"}
		}
		for name, c := range cells {
			field := fmt.Sprintf("ledger.buckets[%q][%q]", bucket, name)
			if _, err := sched.ParseHeuristic(name); err != nil {
				return nil, &model.ValidationError{Field: field, Value: name, Reason: "unknown heuristic"}
			}
			if c == nil {
				return nil, &model.ValidationError{Field: field, Reason: "null cell"}
			}
			if c.Races < 0 || c.Wins < 0 || c.Wins > c.Races {
				return nil, &model.ValidationError{Field: field, Value: fmt.Sprintf("wins=%d races=%d", c.Wins, c.Races), Reason: "inconsistent counters"}
			}
			if len(c.Margins) > c.Races {
				return nil, &model.ValidationError{Field: field, Value: len(c.Margins), Reason: "more margins than races"}
			}
			for i, m := range c.Margins {
				if err := validMargin(m); err != nil {
					return nil, &model.ValidationError{Field: fmt.Sprintf("%s.margins[%d]", field, i), Value: m, Reason: "margin must be finite and >= 1"}
				}
			}
		}
		if len(cells) > 0 {
			l.buckets[bucket] = cells
		}
	}
	return l, nil
}

// Fingerprint is a short stable hash of the canonical JSON form — the
// identity the conform report records for the fixture it selected
// from.
func (l *Ledger) Fingerprint() string {
	h := sha256.New()
	if err := l.Save(h); err != nil {
		return "unhashable"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
