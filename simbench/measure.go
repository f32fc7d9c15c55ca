package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"hpmmap/internal/experiments"
)

const (
	defaultSeed = 1
	// checkWorkers is the worker count of the untimed passes that check
	// the outcome does not depend on scheduling.
	checkWorkers = 2
)

type options struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	outDir  string // where a traced run writes its spans and profiles
	log     io.Writer
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// reporter collects metrics against their definitions and logs each one
// with its unit and sample count.
type reporter struct {
	defs map[string]metricDef
	out  map[string]metricValue
	log  io.Writer
}

func newReporter(defs []metricDef, log io.Writer) *reporter {
	r := &reporter{defs: map[string]metricDef{}, out: map[string]metricValue{}, log: log}
	for _, d := range defs {
		r.defs[d.name] = d
	}
	return r
}

func (r *reporter) set(name string, v float64, note string) {
	d, ok := r.defs[name]
	if !ok {
		panic("simbench: undefined metric " + name) // a bug in this file
	}
	r.out[name] = metricValue{Value: v, Unit: d.unit}
	fmt.Fprintf(r.log, "  %-36s %14.4f %-10s %s\n", name, v, d.unit, note)
}

// log-only line for figures that are not part of the metric contract.
func (r *reporter) note(format string, args ...any) {
	fmt.Fprintf(r.log, "  "+format+"\n", args...)
}

func (r *reporter) check() error {
	for name := range r.defs {
		if _, ok := r.out[name]; !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}
	return nil
}

// measure runs one workload: the timed passes (untraced in fresh
// measuring processes; traced in this process, after as many untraced
// passes), then two untimed passes at two workers: one over the run's grid
// and one over the default-seed grid, checked against the pinned digests.
// Every cell's outcome is checked against its digest.
func measure(w workloadDef, o options) (result, error) {
	pins, ok := pinned[experiments.ModelVersion][w.name]
	if !ok {
		return result{}, fmt.Errorf("no pinned digests for model %s, workload %s: re-pin with -pin",
			experiments.ModelVersion, w.name)
	}
	b := newBench(w.plan(o.seed), w.exec)
	fmt.Fprintf(o.log, "simbench %s seed=%d model=%s cells/pass=%d traced=%v\n",
		w.name, o.seed, experiments.ModelVersion, len(b.plan.Cells), o.traced)
	var r *reporter
	var err error
	if o.traced {
		r, err = measureTraced(b, w, o)
	} else {
		r, err = measureUntraced(b, w, o)
	}
	if err != nil {
		return result{}, err
	}
	if err := r.check(); err != nil {
		return result{}, err
	}

	// The outcome must not depend on the worker count, and at every seed
	// the default-seed grid must give the pinned digests.
	runtime.GOMAXPROCS(checkWorkers)
	if _, err := b.pass(b.allCells(), checkWorkers, false); err != nil {
		return result{}, err
	}
	pb, err := pinnedPass(w, pins, checkWorkers)
	if err != nil {
		return result{}, err
	}
	attempted, failed := b.attempted+pb.attempted, b.failed+pb.failed
	for _, f := range append(b.failures, pb.failures...) {
		fmt.Fprintln(o.log, "FAILED", f)
	}
	fmt.Fprintf(o.log, "  cells_failed %d of %d attempted\n", failed, attempted)
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   r.out,
	}, nil
}

// measureUntraced measures the end-to-end metrics in fresh processes (see
// childPhase). Each process's set-up is one sample of setup_s: it includes
// every one-time cost of a process, package initialisation and whatever
// the first cells fill in.
func measureUntraced(b *bench, w workloadDef, o options) (*reporter, error) {
	ph, setups, scales, alloc, err := childPhase(b, w, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	r := newReporter(endToEnd, o.log)
	r.note("measuring processes: %d; calibration scale per process: %s", len(scales), summary(scales))
	return r, reportEndToEnd(r, ph, len(b.plan.Cells), setups, alloc, medianPeakRSS(ph))
}

// measureTraced runs, in this process, untraced passes for half the time,
// then as many traced passes, and reports the per-layer metrics. The
// untraced figures go to the log only.
func measureTraced(b *bench, w workloadDef, o options) (*reporter, error) {
	// The measured passes run on one P. With a second, idle P the GC runs
	// idle mark workers there for whole cycles, which adds CPU time that
	// varies with how the cycles fall; on one P the GC shares the measured
	// core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := b.pass(w.setupCells(), 1, false); err != nil {
		return nil, err
	}
	setup := cpuTime().Seconds()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := readGCStats()
	// Three passes give every percentile of the report its samples.
	ph, err := b.runPhase(o.seconds/2, 3, false)
	if err != nil {
		return nil, err
	}
	gc1 := readGCStats()
	runtime.ReadMemStats(&ms1)
	r := newReporter(endToEnd, o.log)
	r.note("untraced figures of this process, not calibrated (scale 1):")
	if err := reportEndToEnd(r, ph, len(b.plan.Cells), []float64{setup},
		ms1.TotalAlloc-ms0.TotalAlloc, medianPeakRSS(ph)); err != nil {
		return nil, err
	}
	r = newReporter(perLayer(), o.log)
	return r, tracedPhase(b, w, ph, gc0, gc1, r, o)
}

// medianPeakRSS is the median over ph's passes of each pass's peak RSS,
// in MiB.
func medianPeakRSS(ph phase) float64 {
	var peaks []float64
	for _, p := range ph.passes {
		peaks = append(peaks, float64(p.peakRSS)/(1<<20))
	}
	return median(peaks)
}

// pinnedPass runs one pass over w's grid at the default seed and checks
// every cell against its pinned digest.
func pinnedPass(w workloadDef, pins []uint64, workers int) (*bench, error) {
	b := newBench(w.plan(defaultSeed), w.exec)
	if err := b.pin(pins); err != nil {
		return nil, fmt.Errorf("pinned digests for %s: %w", w.name, err)
	}
	_, err := b.pass(b.allCells(), workers, false)
	return b, err
}

// reportEndToEnd reports the untraced passes' end-to-end metrics, and
// logs their wall-clock counterparts.
func reportEndToEnd(r *reporter, ph phase, ncells int, setups []float64, alloc uint64, rss float64) error {
	n := float64(ph.cells())
	cellCPU, cellWall := ph.cellCPUMillis(), ph.cellMillis()
	wallP50, _ := percentile(cellWall, 0.5)
	if _, ok := percentile(cellCPU, 0.5); !ok {
		return errors.New("too few cells for a median")
	}
	// Every run of a cell does the same work, so the host can only add to
	// its CPU time: other guests contend for the core's caches and memory
	// bandwidth, and that is not steal. The rate and the median are taken
	// over each cell's mean CPU time in the process where it ran fastest,
	// scaled to nominal host speed: the figure least affected by the host.
	// The untraced phase's runs come from several processes (see
	// childPhase, calibrator and bestCellCPU).
	best, err := ph.bestCellCPU(ncells)
	if err != nil {
		return err
	}
	var bestMs []float64
	var bestSum time.Duration
	for _, d := range best {
		bestMs = append(bestMs, ms(d))
		bestSum += d
	}
	r.note("pass wall seconds: %s", summary(passSeconds(ph, false)))
	r.note("pass CPU seconds: %s", summary(passSeconds(ph, true)))
	r.note("wall clock: %.4f cells/s, cell p50 %.4f ms", n/ph.elapsed.Seconds(), wallP50)
	r.note("all runs: %.4f cells per CPU s, cell p50 %.4f ms (n=%d)", n/ph.cpu.Seconds(), median(cellCPU), len(cellCPU))
	r.set("cells_per_cpu_s", float64(ncells)/bestSum.Seconds(), fmt.Sprintf("(%d cells at their best process mean: %.3f scaled CPU s; %d passes ran %d cells, %.2f CPU s, %.2f s wall)",
		ncells, bestSum.Seconds(), len(ph.passes), ph.cells(), ph.cpu.Seconds(), ph.elapsed.Seconds()))
	r.set("cell_cpu_ms_p50", median(bestMs), fmt.Sprintf("(median over %d cells of each cell's best process mean, scaled)", ncells))
	if p90, ok := percentile(cellCPU, 0.9); ok {
		r.note("cell_cpu_ms_p90 %.4f ms (n=%d, all runs)", p90, len(cellCPU))
	} else {
		r.note("cell_cpu_ms_p90 not reported: n=%d, needs %d", len(cellCPU), 10*minBeyond)
	}
	r.set("setup_s", minimum(setups), fmt.Sprintf("(scaled CPU; fastest of the set-up processes: %s)", summary(setups)))
	r.set("alloc_mib_per_cell", float64(alloc)/(1<<20)/n, "")
	r.set("max_rss_mib", rss, "(median over passes of each pass's peak)")
	return nil
}

// tracedPhase runs as many traced passes as the untraced phase ran, with
// per-cell registries, pprof labels and the CPU profiler on, and reports
// the per-layer metrics.
func tracedPhase(b *bench, w workloadDef, ph phase, gc0, gc1 gcStats, r *reporter, o options) error {
	runtime.GC()
	allocs0, _, err := allocProfile()
	if err != nil {
		return err
	}
	var cpuBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	tph, err := b.runPhase(0, len(ph.passes), true)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	runtime.GC()
	allocs1, allocRaw, err := allocProfile()
	if err != nil {
		return err
	}

	// CPU and allocation shares.
	cpuProf, err := parseProfile(cpuBuf.Bytes())
	if err != nil {
		return err
	}
	cpuNs, err := foldLayers(cpuProf, "cpu", true)
	if err != nil {
		return err
	}
	var totalNs int64
	for _, v := range cpuNs {
		totalNs += v
	}
	cpuShares := shares(cpuNs)
	for _, l := range layers {
		r.set("cpu."+l, cpuShares[l], "")
	}
	r.set("cpu.samples", float64(len(cpuProf.samples)), fmt.Sprintf("(%.2f CPU s)", float64(totalNs)/1e9))
	allocDelta := map[string]int64{}
	for _, l := range layers {
		allocDelta[l] = allocs1[l] - allocs0[l]
	}
	allocShares := shares(allocDelta)
	for _, l := range layers {
		r.set("alloc."+l, allocShares[l], "")
	}

	// Spans.
	var boot, sim []float64
	var bootSum, cellSum time.Duration
	tph.each(func(c cellResult) {
		boot = append(boot, ms(c.bootEnd.Sub(c.start)))
		sim = append(sim, ms(c.simEnd.Sub(c.bootEnd)))
		bootSum += c.bootEnd.Sub(c.start)
		cellSum += c.end.Sub(c.start)
	})
	var gaps []float64
	for _, g := range tph.dispatchGaps() {
		gaps = append(gaps, float64(g)/float64(time.Microsecond))
	}
	bootP50, ok1 := percentile(boot, 0.5)
	simP50, ok2 := percentile(sim, 0.5)
	gapP50, ok3 := percentile(gaps, 0.5)
	if !ok1 || !ok2 || !ok3 {
		return errors.New("too few traced cells for span medians")
	}
	n := fmt.Sprintf("(n=%d)", len(boot))
	r.set("span.cells", float64(tph.cells()), fmt.Sprintf("(%d passes)", len(tph.passes)))
	r.set("span.boot_ms_p50", bootP50, n)
	r.set("span.simulate_ms_p50", simP50, n)
	r.set("span.boot_share", 100*ratio(float64(bootSum), float64(cellSum)), "(boot time / cell time)")
	r.set("span.dispatch_us_p50", gapP50, fmt.Sprintf("(n=%d)", len(gaps)))

	// Work counts of the first traced pass (every pass is the same grid,
	// so the counts repeat exactly).
	first := phase{passes: tph.passes[:1]}
	counts := map[string]float64{}
	records := 0
	first.each(func(c cellResult) {
		for _, wc := range workCounts {
			counts[wc.name] += float64(c.snap.CounterValue(wc.counter))
		}
		records += c.faultRecords
	})
	for _, wc := range workCounts {
		r.set(wc.name, counts[wc.name], "(per pass)")
	}
	r.set("trace.fault_records", float64(records), "(per pass)")

	// Ratios, each logged with its base.
	passes := float64(len(tph.passes))
	untracedPassCPU := ph.cpu.Seconds() / float64(len(ph.passes))
	cpuSecPerPass := func(ls ...string) float64 {
		var ns int64
		for _, l := range ls {
			ns += cpuNs[l]
		}
		return float64(ns) / 1e9 / passes
	}
	r.set("sim.cpu_us_per_event", 1e6*ratio(untracedPassCPU, counts["sim.events"]),
		fmt.Sprintf("(base: %.0f events, %.3f CPU s untraced per pass)", counts["sim.events"], untracedPassCPU))
	r.set("kernel.host_ns_per_reclaimed_page", 1e9*ratio(cpuSecPerPass("mem", "kernel"), counts["kernel.reclaimed_pages"]),
		fmt.Sprintf("(base: %.0f pages, %.3f CPU s in mem+kernel per pass)", counts["kernel.reclaimed_pages"], cpuSecPerPass("mem", "kernel")))
	r.set("pgtable.host_ns_per_fault", 1e9*ratio(cpuSecPerPass("pgtable"), counts["app.faults"]),
		fmt.Sprintf("(base: %.0f faults, %.3f CPU s in pgtable per pass)", counts["app.faults"], cpuSecPerPass("pgtable")))
	r.set("thp.merge_yield", ratio(counts["thp.merges"], counts["thp.scans"]),
		fmt.Sprintf("(base: %.0f scans)", counts["thp.scans"]))
	thpAttempts := counts["linuxmm.large_faults"] + counts["linuxmm.fallback_faults"]
	r.set("linuxmm.fallback_frac", ratio(counts["linuxmm.fallback_faults"], thpAttempts),
		fmt.Sprintf("(base: %.0f large-page attempts)", thpAttempts))
	r.set("runtime.gc_cpu_frac", ratio(gc1.gcCPU-gc0.gcCPU, gc1.busyCPU-gc0.busyCPU),
		fmt.Sprintf("(base: %.2f busy CPU s untraced)", gc1.busyCPU-gc0.busyCPU))
	r.set("runtime.gc_cycles_per_cell", ratio(float64(gc1.cycles-gc0.cycles), float64(ph.cells())),
		fmt.Sprintf("(base: %d untraced cells)", ph.cells()))
	r.set("trace.overhead_pct", 100*(ratio(tph.cpu.Seconds(), ph.cpu.Seconds())-1),
		fmt.Sprintf("(%.3f CPU s traced vs %.3f untraced; wall %.3f s vs %.3f)",
			tph.cpu.Seconds(), ph.cpu.Seconds(), tph.elapsed.Seconds(), ph.elapsed.Seconds()))

	return writeTraceFiles(o.outDir, w.name, b, tph, cpuBuf.Bytes(), allocRaw)
}

// allocProfile folds the process's cumulative allocation profile by layer
// and returns it with the raw profile.
func allocProfile() (map[string]int64, []byte, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, nil, fmt.Errorf("alloc profile: %w", err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	folded, err := foldLayers(p, "alloc_space", false)
	return folded, buf.Bytes(), err
}

// span is one interval of a traced cell. Spans of one cell share Cell;
// boot and simulate have the cell span as parent.
type span struct {
	Cell    int    `json:"cell"`
	Label   string `json:"label"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// writeTraceFiles writes the traced phase's spans (JSON lines, times in
// µs from the phase's first cell) and both profiles.
func writeTraceFiles(dir, name string, b *bench, tph phase, cpu, allocs []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+"-spans.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t0 := tph.passes[0].results[0].start
	us := func(t time.Time) int64 { return t.Sub(t0).Microseconds() }
	id := 0
	for _, p := range tph.passes {
		for j, ok := range p.ok {
			if !ok {
				continue
			}
			c := p.results[j]
			label := b.plan.Cells[p.cells[j]].String()
			for _, s := range []span{
				{id, label, "cell", "", us(c.start), us(c.end)},
				{id, label, "boot", "cell", us(c.start), us(c.bootEnd)},
				{id, label, "simulate", "cell", us(c.bootEnd), us(c.simEnd)},
			} {
				if err := enc.Encode(s); err != nil {
					return err
				}
			}
			id++
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+"-cpu.pprof"), cpu, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+"-allocs.pprof"), allocs, 0o644)
}

type gcStats struct {
	gcCPU, busyCPU float64 // busy: every CPU class but idle
	cycles         uint64
}

func readGCStats() gcStats {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	return gcStats{
		gcCPU:   s[0].Value.Float64(),
		busyCPU: s[1].Value.Float64() - s[2].Value.Float64(),
		cycles:  s[3].Value.Uint64(),
	}
}

// passSeconds lists each pass's wall time, or its CPU time.
func passSeconds(ph phase, cpu bool) []float64 {
	var out []float64
	for _, p := range ph.passes {
		d := p.elapsed
		if cpu {
			d = p.cpu
		}
		out = append(out, d.Seconds())
	}
	return out
}

// summary renders a sample as its count, minimum, median and maximum.
func summary(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("n=%d min %.4f median %.4f max %.4f", len(s), s[0], median(s), s[len(s)-1])
}
