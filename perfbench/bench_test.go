package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestBodiesReproducePerSeed(t *testing.T) {
	gens := map[string]func(seed uint64, i int) ([]byte, error){
		"cold":  coldBody,
		"fleet": fleetBody,
		"warm": func(seed uint64, i int) ([]byte, error) {
			pool, err := warmPool(seed)
			if err != nil {
				return nil, err
			}
			return bytes.Join(pool, []byte("\n")), nil
		},
	}
	for name, gen := range gens {
		for i := 0; i < 6; i++ {
			a, err := gen(7, i)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := gen(7, i)
			c, _ := gen(8, i)
			if !bytes.Equal(a, b) {
				t.Errorf("%s body %d: seed 7 gave two different bodies", name, i)
			}
			if bytes.Equal(a, c) {
				t.Errorf("%s body %d: seeds 7 and 8 gave the same body", name, i)
			}
		}
	}
}

func TestColdBodiesDistinct(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < 5000; i++ {
		b, err := coldBody(3, i)
		if err != nil {
			t.Fatal(err)
		}
		if j, ok := seen[string(b)]; ok {
			t.Fatalf("cold bodies %d and %d are equal", j, i)
		}
		seen[string(b)] = i
	}
}

// buildDaemon builds cmd/coschedd from this checkout into a temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "coschedd")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/coschedd").CombinedOutput()
	if err != nil {
		t.Fatalf("building coschedd: %v\n%s", err, out)
	}
	return bin
}

func TestWarmRequestsAllHitTheMemo(t *testing.T) {
	bin := buildDaemon(t)
	b := &bench{w: workloads[1], seed: 5, bin: bin, dir: t.TempDir()}
	j, err := b.job()
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := b.setUp(j, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	before, err := d.metrics()
	if err != nil {
		t.Fatal(err)
	}
	tg := &target{hc: httpClient(), base: d.base}
	p, err := closedLoop(tg, j.src, 2000)
	if err != nil {
		t.Fatal(err)
	}
	after, err := d.metrics()
	if err != nil {
		t.Fatal(err)
	}
	if p.ok() != len(p.records) || p.ok() == 0 {
		t.Fatalf("%d of %d requests succeeded", p.ok(), len(p.records))
	}
	if m := delta(before, after, "portfolio_cache_misses_total"); m != 0 {
		t.Errorf("%v memo misses during timed warm requests, want 0", m)
	}
	// Every request reads one memo entry per heuristic of the race.
	if h, want := delta(before, after, "portfolio_cache_hits_total"), float64(12*p.ok()); h != want {
		t.Errorf("%v memo hits for %d requests, want %v", h, p.ok(), want)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []nameUnit `json:"end_to_end"`
	PerLayer []nameUnit `json:"per_layer"`
}

type nameUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the daemon for every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := buildDaemon(t)
	defer func(f, r int) { fixedMin, rungMin = f, r }(fixedMin, rungMin)
	fixedMin, rungMin = 100, 50
	for _, w := range spec.Workloads {
		name := w.Name
		for trace, want := range map[string][]nameUnit{"0": spec.EndToEnd, "1": spec.PerLayer} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", name, "--seed", "2", "--seconds", "1", "--trace", trace,
				"--daemon", bin, "--out", t.TempDir()}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %s: no metric %s", name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace %s: %s unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
