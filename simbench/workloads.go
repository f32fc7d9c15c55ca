package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime/pprof"
	"strconv"
	"time"

	"hpmmap/internal/experiments"
	"hpmmap/internal/kernel"
	"hpmmap/internal/metrics"
	"hpmmap/internal/runner"
	"hpmmap/internal/trace"
	"hpmmap/internal/workload"
)

// workloadDef is one experiment grid the benchmark drives: every
// combination of bench × manager × core count, run as single-node cells.
type workloadDef struct {
	name     string
	benches  []string
	profile  experiments.Profile
	managers []experiments.ManagerKind
	cores    []int
	scale    experiments.Scale
	// detail selects micro fidelity: real page tables plus a per-fault
	// trace.Recorder on rank 0 (the Figs. 2–5 configuration).
	detail bool
}

var allManagers = []experiments.ManagerKind{experiments.HPMMAP, experiments.THP, experiments.HugeTLBfs}

var fourApps = []string{"HPCCG", "CoMD", "miniMD", "miniFE"}

// workloads are the benchmark's grids. Why each was chosen, and which
// layer each one exercises or bypasses, is recorded in README.md.
var workloads = []workloadDef{
	{
		name:     "fig7-pagecache",
		benches:  []string{"miniMD"},
		profile:  experiments.ProfileB,
		managers: allManagers,
		cores:    []int{1, 2, 4, 8},
		scale:    0.25,
	},
	{
		name:     "faultstudy-detail",
		benches:  fourApps,
		profile:  experiments.ProfileNone,
		managers: allManagers,
		cores:    []int{8},
		scale:    0.25,
		detail:   true,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// planSeed maps the benchmark's --seed onto the runner's base seed; every
// cell seed is then derived from it and the cell's coordinates.
func planSeed(seed uint64) uint64 {
	return (seed + 1) * 0x9e3779b97f4a7c15
}

// plan lays the grid out as a runner plan, bench-major then manager then
// cores, the order Fig. 7 uses.
func (w workloadDef) plan(seed uint64) runner.Plan {
	p := runner.Plan{Name: w.name, Seed: planSeed(seed)}
	for _, b := range w.benches {
		for _, m := range w.managers {
			for _, c := range w.cores {
				p.Cells = append(p.Cells, runner.Cell{
					Exp: w.name, Bench: b, Profile: w.profile.String(),
					Manager: m.Key(), Cores: c,
				})
			}
		}
	}
	return p
}

// setupCells returns the plan index of the first cell of each manager
// configuration: the warm-up that runs before the timed passes.
func (w workloadDef) setupCells() []int {
	out := make([]int, len(w.managers))
	for i := range w.managers {
		out[i] = i * len(w.cores)
	}
	return out
}

// cellResult is what one cell reports back: the digest of its simulated
// outcome and the host timestamps of its phases.
type cellResult struct {
	digest uint64
	// start/end bracket the cell function; bootEnd is when the node had
	// booted (the hook ran) and simEnd when the application completed
	// (the hook's stop function ran).
	start, bootEnd, simEnd, end time.Time
	// cpu is the process CPU time used while the cell ran, GC included.
	cpu time.Duration
	// faultRecords counts the trace.Recorder's per-fault records.
	faultRecords int
	// snap is the cell's metric registry snapshot (traced runs only).
	snap metrics.Snapshot
}

// cellExec runs one cell. traced attaches a metrics registry and pprof
// labels; it must not change the simulated outcome.
type cellExec func(ctx context.Context, cell runner.Cell, seed uint64, traced bool) (cellResult, error)

func managerByKey(key string) (experiments.ManagerKind, bool) {
	for _, m := range allManagers {
		if m.Key() == key {
			return m, true
		}
	}
	return 0, false
}

// exec runs one cell of w through experiments.ExecuteSingleNodeWith. The
// hook only takes timestamps: it adds no engine event and draws no
// randomness, so the outcome is the one the figure harnesses produce.
func (w workloadDef) exec(ctx context.Context, cell runner.Cell, seed uint64, traced bool) (res cellResult, err error) {
	res.start = time.Now()
	spec, ok := workload.ByName(cell.Bench)
	if !ok {
		return res, fmt.Errorf("unknown bench %q", cell.Bench)
	}
	kind, ok := managerByKey(cell.Manager)
	if !ok {
		return res, fmt.Errorf("unknown manager %q", cell.Manager)
	}
	rs := experiments.SingleRun{
		Bench: spec, Kind: kind, Profile: w.profile, Ranks: cell.Cores,
		Seed: seed, Detail: w.detail, Scale: w.scale, Context: ctx,
	}
	if w.detail {
		rs.Recorder = trace.NewRecorder()
	}
	if traced {
		rs.Metrics = metrics.NewRegistry()
	}
	hook := func(*kernel.Node) func() {
		res.bootEnd = time.Now()
		return func() { res.simEnd = time.Now() }
	}
	var out experiments.RunOutcome
	run := func(context.Context) { out, err = experiments.ExecuteSingleNodeWith(rs, hook) }
	if traced {
		pprof.Do(ctx, pprof.Labels("workload", w.name, "manager", cell.Manager,
			"profile", cell.Profile, "cores", strconv.Itoa(cell.Cores)), run)
	} else {
		run(ctx)
	}
	if err != nil {
		return res, err
	}
	res.digest = digest(out)
	if rs.Recorder != nil {
		res.faultRecords = rs.Recorder.Len()
	}
	if rs.Metrics != nil {
		res.snap = rs.Metrics.Snapshot()
	}
	res.end = time.Now()
	return res, nil
}

// digest hashes a cell's simulated outcome: runtime, the per-rank fault
// reports, the Linux manager's diagnostics and the mean memory pressure.
func digest(o experiments.RunOutcome) uint64 {
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u(math.Float64bits(o.RuntimeSec))
	u(uint64(o.Result.Runtime))
	u(uint64(len(o.Result.Ranks)))
	for _, r := range o.Result.Ranks {
		u(uint64(r.Runtime))
		for k := range r.Faults.Faults {
			u(r.Faults.Faults[k])
			u(uint64(r.Faults.Cycles[k]))
		}
		u(r.Faults.Stalls)
	}
	u(o.Compactions)
	u(o.ReclaimStorms)
	u(o.StormsHPC)
	u(o.Merges)
	u(math.Float64bits(o.MeanPressure))
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
