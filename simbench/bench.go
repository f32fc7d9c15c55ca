package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hpmmap/internal/runner"
)

// bench runs passes over one workload's plan and keeps the outcome check:
// every cell's digest must equal its expected digest, which is pinned at
// the default seed and otherwise taken from the cell's first run. Every
// cell run counts as attempted; errors, panics and digest mismatches
// count as failed.
type bench struct {
	plan runner.Plan
	exec cellExec

	want   []uint64 // expected digest per plan index
	known  []bool   // want[i] is set
	pinned bool     // want holds pinned digests

	attempted, failed int
	failures          []string // one line per failed cell run

	// cal, when set, runs the calibration kernel between cells.
	cal *calibrator
}

func newBench(plan runner.Plan, exec cellExec) *bench {
	return &bench{
		plan:  plan,
		exec:  exec,
		want:  make([]uint64, len(plan.Cells)),
		known: make([]bool, len(plan.Cells)),
	}
}

// pin fixes the expected digests; a length mismatch is an error.
func (b *bench) pin(digests []uint64) error {
	if len(digests) != len(b.plan.Cells) {
		return fmt.Errorf("%d pinned digests for %d cells", len(digests), len(b.plan.Cells))
	}
	copy(b.want, digests)
	for i := range b.known {
		b.known[i] = true
	}
	b.pinned = true
	return nil
}

// passResult is one pass over a set of cells. ok[i] reports whether
// cells[i] ran and matched its digest; results[i] is valid only then.
// errs[i] is the cell's error, if it had one. elapsed is the pass's wall
// time and cpu the process CPU time it used.
type passResult struct {
	cells   []int
	results []cellResult
	errs    []error
	ok      []bool
	elapsed time.Duration
	cpu     time.Duration
	// scale turns the CPU times of the pass into CPU time at nominal host
	// speed (see calibrator); 1 when the pass was not calibrated.
	scale float64
	// proc numbers the measuring process that ran the pass (see
	// childPhase); 0 for this process.
	proc int
	// peakRSS is the process's peak resident set during the pass, in
	// bytes (timed phases only).
	peakRSS uint64
}

// cellCount returns the number of cells that completed correctly.
func (p passResult) cellCount() int {
	n := 0
	for _, ok := range p.ok {
		if ok {
			n++
		}
	}
	return n
}

// allCells lists every plan index.
func (b *bench) allCells() []int {
	out := make([]int, len(b.plan.Cells))
	for i := range out {
		out[i] = i
	}
	return out
}

// pass runs the given plan cells through runner.Run on the given number
// of workers (1 is a closed loop with one client: the next cell starts
// when the previous one returns) and checks every outcome.
func (b *bench) pass(cells []int, workers int, traced bool) (passResult, error) {
	sub := runner.Plan{Name: b.plan.Name, Seed: b.plan.Seed}
	for _, i := range cells {
		sub.Cells = append(sub.Cells, b.plan.Cells[i])
	}
	var cal0 time.Duration
	if b.cal != nil {
		cal0 = b.cal.spent
	}
	start, cpu0 := time.Now(), cpuTime()
	results, err := runner.Run(runner.Options{Workers: workers, ContinueOnError: true}, sub,
		func(ctx context.Context, _ int, cell runner.Cell, seed uint64) (cellResult, error) {
			c0 := cpuTime()
			r, err := b.exec(ctx, cell, seed, traced)
			r.cpu = cpuTime() - c0
			if b.cal != nil {
				b.cal.maybe()
			}
			return r, err
		})
	pr := passResult{
		cells: cells, results: results, errs: make([]error, len(cells)), ok: make([]bool, len(cells)),
		elapsed: time.Since(start), cpu: cpuTime() - cpu0, scale: 1,
	}
	if b.cal != nil {
		pr.cpu -= b.cal.spent - cal0
	}
	if err != nil {
		ge, ok := runner.AsGridError(err)
		if !ok {
			return pr, err
		}
		for _, f := range ge.Failures {
			pr.errs[f.Index] = f.Err
		}
	}
	mode := fmt.Sprintf("workers=%d traced=%v", workers, traced)
	if b.pinned {
		mode += " pinned"
	}
	b.checkPass(&pr, mode)
	return pr, nil
}

// checkPass counts every cell run of pr as attempted and sets pr.ok for
// each one that had no error and gave its expected digest; the others
// count as failed. A cell's first run sets its expected digest unless it
// is pinned.
func (b *bench) checkPass(pr *passResult, mode string) {
	for j, idx := range pr.cells {
		b.attempted++
		if cerr := pr.errs[j]; cerr != nil {
			b.fail(fmt.Sprintf("%s [%s]: %v", b.plan.Cells[idx], mode, firstLine(cerr)))
			continue
		}
		got := pr.results[j].digest
		switch {
		case !b.known[idx]:
			b.want[idx], b.known[idx] = got, true
		case got != b.want[idx]:
			b.fail(fmt.Sprintf("%s [%s]: digest %016x, want %016x", b.plan.Cells[idx], mode, got, b.want[idx]))
			continue
		}
		pr.ok[j] = true
	}
}

func (b *bench) fail(msg string) {
	b.failed++
	b.failures = append(b.failures, msg)
}

func firstLine(err error) string {
	s := err.Error()
	for i, c := range s {
		if c == '\n' {
			return s[:i]
		}
	}
	return s
}

// phase is a sequence of whole passes over the plan.
type phase struct {
	passes       []passResult
	elapsed, cpu time.Duration
}

// runPhase runs whole passes over the plan until at least minDur has
// elapsed and at least minPasses passes have run.
func (b *bench) runPhase(minDur time.Duration, minPasses int, traced bool) (phase, error) {
	var ph phase
	for {
		if ph.elapsed >= minDur && len(ph.passes) >= minPasses {
			return ph, nil
		}
		if err := resetPeakRSS(); err != nil {
			return ph, err
		}
		pr, err := b.pass(b.allCells(), 1, traced)
		if err != nil {
			return ph, err
		}
		if pr.peakRSS, err = peakRSS(); err != nil {
			return ph, err
		}
		if pr.cellCount() == 0 {
			return ph, errors.New("a whole pass failed")
		}
		ph.add(pr)
	}
}

func (ph *phase) add(pr passResult) {
	ph.passes = append(ph.passes, pr)
	ph.elapsed += pr.elapsed
	ph.cpu += pr.cpu
}

// cellMillis returns the wall time of every correct cell.
func (ph phase) cellMillis() []float64 {
	var out []float64
	ph.each(func(r cellResult) { out = append(out, ms(r.end.Sub(r.start))) })
	return out
}

// cellCPUMillis returns the process CPU time of every correct cell.
func (ph phase) cellCPUMillis() []float64 {
	var out []float64
	ph.each(func(r cellResult) { out = append(out, ms(r.cpu)) })
	return out
}

// bestCellCPU returns, per plan cell, the cell's mean CPU time over its
// correct runs in one process, scaled to nominal host speed, taken from
// the process where that mean is least. Within a process the mean counts
// every cost the runs share, such as GC cycles that fall in some runs and
// not others; across processes the least mean leaves out as much as it
// can of what the host adds. It fails when a cell never ran correctly.
func (ph phase) bestCellCPU(ncells int) ([]time.Duration, error) {
	type key struct{ proc, cell int }
	sum, runs := map[key]float64{}, map[key]int{}
	for _, p := range ph.passes {
		for j, ok := range p.ok {
			if ok {
				k := key{p.proc, p.cells[j]}
				sum[k] += float64(p.results[j].cpu) * p.scale
				runs[k]++
			}
		}
	}
	best := make([]time.Duration, ncells)
	seen := make([]bool, ncells)
	for k, n := range runs {
		mean := time.Duration(sum[k] / float64(n))
		if !seen[k.cell] || mean < best[k.cell] {
			best[k.cell], seen[k.cell] = mean, true
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("plan cell %d never ran correctly", i)
		}
	}
	return best, nil
}

func (ph phase) each(fn func(cellResult)) {
	for _, p := range ph.passes {
		for j, ok := range p.ok {
			if ok {
				fn(p.results[j])
			}
		}
	}
}

func (ph phase) cells() int {
	n := 0
	for _, p := range ph.passes {
		n += p.cellCount()
	}
	return n
}

// dispatchGaps returns, per pass, the host time between one cell
// returning and the next one starting: the runner's per-cell cost.
func (ph phase) dispatchGaps() []time.Duration {
	var out []time.Duration
	for _, p := range ph.passes {
		var rs []cellResult
		for j, ok := range p.ok {
			if ok {
				rs = append(rs, p.results[j])
			}
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].start.Before(rs[j].start) })
		for i := 1; i < len(rs); i++ {
			out = append(out, rs[i].start.Sub(rs[i-1].end))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's CPU time so far: user plus system, all
// threads. Unlike wall time it leaves out the time the hypervisor gives
// the VM's vCPUs to other guests (steal), which on a shared host can
// halve the wall-clock rate for minutes at a time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS tracking for this process
// (VmHWM), so peakRSS reports the peak of one pass.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads VmHWM, the peak resident set since the last reset.
func peakRSS() (uint64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
