package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"hpmmap/internal/experiments"
	"hpmmap/internal/runner"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false},
		{20, 0.5, 10, true},
		{21, 0.5, 11, true},
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%.2f) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func testPlan(n int) runner.Plan {
	p := runner.Plan{Name: "t", Seed: 7}
	for i := 0; i < n; i++ {
		p.Cells = append(p.Cells, runner.Cell{Exp: "t", Bench: "b", Manager: "m", Cores: i + 1})
	}
	return p
}

func TestCellsFailedAccounting(t *testing.T) {
	pass := 0
	exec := func(_ context.Context, cell runner.Cell, seed uint64, traced bool) (cellResult, error) {
		now := time.Now()
		r := cellResult{digest: seed, start: now, bootEnd: now, simEnd: now, end: now}
		switch cell.Cores {
		case 2:
			return r, errors.New("simulated failure")
		case 3:
			panic("cell panicked")
		case 4:
			if pass > 0 {
				r.digest++ // a later run disagrees with the first
			}
		}
		return r, nil
	}
	b := newBench(testPlan(5), exec)
	first, err := b.pass(b.allCells(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	pass++
	if _, err := b.pass(b.allCells(), 2, true); err != nil {
		t.Fatal(err)
	}
	if b.attempted != 10 || b.failed != 5 {
		t.Fatalf("attempted %d failed %d, want 10 and 5: %v", b.attempted, b.failed, b.failures)
	}
	if first.cellCount() != 3 {
		t.Errorf("first pass counted %d correct cells, want 3", first.cellCount())
	}
	log := strings.Join(b.failures, "\n")
	for _, want := range []string{"t b/m/c2#0", "simulated failure", "t b/m/c3#0", "cell panicked", "t b/m/c4#0 [workers=2 traced=true]: digest"} {
		if !strings.Contains(log, want) {
			t.Errorf("failure log lacks %q:\n%s", want, log)
		}
	}

	// A pinned digest is checked from the first run.
	b = newBench(testPlan(2), exec)
	p := b.plan
	if err := b.pin([]uint64{p.Cells[0].Seed(p.Seed), 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.pass(b.allCells(), 1, false); err != nil {
		t.Fatal(err)
	}
	if b.failed != 1 || !strings.Contains(b.failures[0], "c2#0") {
		t.Errorf("pinned check: failed %d %v, want one failure on c2", b.failed, b.failures)
	}
	if err := b.pin([]uint64{1}); err == nil {
		t.Error("pinning the wrong number of digests succeeded")
	}
}

// TestDigestsAgreeAcrossWorkersAndTracing runs shrunken grids of the
// page-cache and micro-fidelity workloads at one and two workers, traced
// and untraced; every run of a cell must give the same digest.
func TestDigestsAgreeAcrossWorkersAndTracing(t *testing.T) {
	for _, w := range []workloadDef{
		{name: "small-pagecache", benches: []string{"miniMD"}, profile: experiments.ProfileB,
			managers: allManagers, cores: []int{1, 2}, scale: 0.05},
		{name: "small-detail", benches: []string{"HPCCG", "miniFE"}, profile: experiments.ProfileNone,
			managers: allManagers, cores: []int{2}, scale: 0.05, detail: true},
	} {
		b := newBench(w.plan(3), w.exec)
		for _, run := range []struct {
			workers int
			traced  bool
		}{{1, false}, {2, false}, {1, true}, {2, true}} {
			pr, err := b.pass(b.allCells(), run.workers, run.traced)
			if err != nil {
				t.Fatal(err)
			}
			if run.traced {
				if pr.results[0].snap.CounterValue("sim_events_total") == 0 {
					t.Errorf("%s: traced cell has no sim_events_total", w.name)
				}
			}
		}
		if b.failed != 0 || b.attempted != 4*len(b.plan.Cells) {
			t.Errorf("%s: %d of %d cell runs failed: %v", w.name, b.failed, b.attempted, b.failures)
		}
	}
}

// TestPinnedPassCatchesChangedOutcome checks that the pinned pass, which
// every run makes whatever its seed, fails a cell whose outcome differs
// from its pin.
func TestPinnedPassCatchesChangedOutcome(t *testing.T) {
	w := workloadDef{name: "small-quiet", benches: []string{"HPCCG"}, profile: experiments.ProfileNone,
		managers: allManagers, cores: []int{1}, scale: 0.05}
	ref := newBench(w.plan(defaultSeed), w.exec)
	if _, err := ref.pass(ref.allCells(), 1, false); err != nil || ref.failed != 0 {
		t.Fatalf("reference pass: %v %v", err, ref.failures)
	}
	pins := append([]uint64(nil), ref.want...)
	pins[1]++
	b, err := pinnedPass(w, pins, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.attempted != 3 || b.failed != 1 || !strings.Contains(b.failures[0], "HPCCG/none/thp/c1#0 [workers=2 traced=false pinned]") {
		t.Errorf("attempted %d failed %d %v, want one failure on the thp cell", b.attempted, b.failed, b.failures)
	}
	if _, err := pinnedPass(w, pins[:2], 2); err == nil {
		t.Error("a short pin table was accepted")
	}
}

func TestPinnedDigestsCoverEveryWorkload(t *testing.T) {
	pins := pinned[experiments.ModelVersion]
	for _, w := range workloads {
		if got, want := len(pins[w.name]), len(w.plan(defaultSeed).Cells); got != want {
			t.Errorf("%s: %d pinned digests for model %s, want %d", w.name, got, experiments.ModelVersion, want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	compare := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer())
}

// TestBestCellCPU checks the end-to-end timing rule: a cell's mean over
// its runs in one process, scaled, and the least such mean over processes.
func TestBestCellCPU(t *testing.T) {
	ms := func(v ...int) []cellResult {
		var out []cellResult
		for _, x := range v {
			out = append(out, cellResult{cpu: time.Duration(x) * time.Millisecond})
		}
		return out
	}
	pass := func(proc int, scale float64, cpu ...int) passResult {
		return passResult{cells: []int{0, 1}, results: ms(cpu...), ok: []bool{true, true}, proc: proc, scale: scale}
	}
	var ph phase
	ph.add(pass(0, 1, 10, 40))
	ph.add(pass(0, 1, 30, 40)) // process 0: cell 0 mean 20 ms, cell 1 40 ms
	ph.add(pass(1, 2, 12, 10)) // process 1, twice as slow a host: 24 ms and 20 ms
	failed := pass(1, 2, 1, 1)
	failed.ok[0], failed.ok[1] = false, false // failed runs do not count
	ph.add(failed)
	best, err := ph.bestCellCPU(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []time.Duration{20 * time.Millisecond, 20 * time.Millisecond}; best[0] != want[0] || best[1] != want[1] {
		t.Errorf("bestCellCPU = %v, want %v", best, want)
	}
	if _, err := ph.bestCellCPU(3); err == nil {
		t.Error("a cell that never ran was not reported")
	}
}

// TestChildReportRoundTrip checks that a measuring process's report keeps
// every cell run, its digest and its error for the parent's check.
func TestChildReportRoundTrip(t *testing.T) {
	b := newBench(testPlan(3), nil)
	now := time.Now()
	pr := passResult{
		cells:   []int{2, 0, 1},
		results: []cellResult{{digest: 7, start: now, end: now}, {digest: 5, start: now, end: now}, {}},
		errs:    []error{nil, nil, errors.New("cell failed\nsecond line")},
		elapsed: time.Second, cpu: time.Second,
	}
	back, err := toChildPass(pr).toPass(len(b.plan.Cells))
	if err != nil {
		t.Fatal(err)
	}
	b.checkPass(&back, "process 0")
	if b.attempted != 3 || b.failed != 1 || !strings.Contains(b.failures[0], "c2#0 [process 0]: cell failed") {
		t.Errorf("attempted %d failed %d %v, want one failure on c2", b.attempted, b.failed, b.failures)
	}
	if back.cells[0] != 2 || back.results[0].digest != 7 || !back.ok[0] || back.ok[2] || back.scale != 1 {
		t.Errorf("round trip lost a run: %+v", back)
	}
	if _, err := (childPass{Cells: []childCell{{Index: 3}}}).toPass(3); err == nil {
		t.Error("a cell outside the plan was accepted")
	}
}

func TestCalScale(t *testing.T) {
	if s := calScale(nil); s != 1 {
		t.Errorf("calScale(nil) = %v, want 1", s)
	}
	d := []time.Duration{2 * calNominal, calNominal / 2, calNominal, 4 * calNominal}
	if s := calScale(d); s != 1/1.5 {
		t.Errorf("calScale = %v, want %v (nominal over the median)", s, 1/1.5)
	}
	if s := calScale(d[:3]); s != 1 {
		t.Errorf("calScale = %v, want 1", s)
	}
}
