package main

import "hpmmap/internal/metrics"

// metricDef names one reported metric. The lists below are the contract
// with BENCHMARK.json (end_to_end and per_layer), checked by a test.
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics are measured with tracing off. Times are process CPU
// time (see cpuTime); the report also logs the wall-clock figures.
var endToEnd = []metricDef{
	{"cells_per_cpu_s", "1/s", "higher"},
	{"cell_cpu_ms_p50", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mib_per_cell", "MiB", "lower"},
	{"max_rss_mib", "MiB", "lower"},
}

// workCounts are read from the traced pass's metric registries and
// reported per grid pass.
var workCounts = []struct{ name, counter string }{
	{"sim.events", metrics.SimEventsTotal},
	{"app.faults", metrics.AppFaultsTotal},
	{"app.fault_stalls", metrics.AppFaultStallsTotal},
	{"linuxmm.small_faults", metrics.LinuxmmSmallFaultsTotal},
	{"linuxmm.large_faults", metrics.LinuxmmLargeFaultsTotal},
	{"linuxmm.fallback_faults", metrics.LinuxmmFallbackFaultsTotal},
	{"linuxmm.gated_alloc_blocks", metrics.LinuxmmGatedAllocBlocksTotal},
	{"linuxmm.compactions", metrics.LinuxmmCompactionsTotal},
	{"kernel.reclaimed_pages", metrics.KernelReclaimedPagesTotal},
	{"kernel.kswapd_runs", metrics.KernelKswapdRunsTotal},
	{"kernel.sched_segments", metrics.KernelSchedSegmentsTotal},
	{"thp.scans", metrics.THPScansTotal},
	{"thp.merges", metrics.THPMergesTotal},
	{"buddy.allocs", metrics.BuddyAllocsTotal},
	{"buddy.splits", metrics.BuddySplitsTotal},
	{"hpmmap.map_calls", metrics.HPMMAPMapCallsTotal},
	{"bsp.barriers", metrics.BSPBarriersTotal},
}

// perLayer lists the traced run's metrics: CPU and allocation shares per
// layer, span timings, work counts per pass and ratios of the two.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{"cpu." + l, "%", "lower"})
	}
	out = append(out, metricDef{"cpu.samples", "count", "lower"})
	for _, l := range layers {
		out = append(out, metricDef{"alloc." + l, "%", "lower"})
	}
	out = append(out,
		metricDef{"span.cells", "count", "higher"},
		metricDef{"span.boot_ms_p50", "ms", "lower"},
		metricDef{"span.simulate_ms_p50", "ms", "lower"},
		metricDef{"span.boot_share", "%", "lower"},
		metricDef{"span.dispatch_us_p50", "us", "lower"},
	)
	for _, c := range workCounts {
		out = append(out, metricDef{c.name, "count", "lower"})
	}
	out = append(out,
		metricDef{"trace.fault_records", "count", "lower"},
		metricDef{"sim.cpu_us_per_event", "us", "lower"},
		metricDef{"kernel.host_ns_per_reclaimed_page", "ns", "lower"},
		metricDef{"pgtable.host_ns_per_fault", "ns", "lower"},
		metricDef{"thp.merge_yield", "ratio", "higher"},
		metricDef{"linuxmm.fallback_frac", "ratio", "lower"},
		metricDef{"runtime.gc_cpu_frac", "ratio", "lower"},
		metricDef{"runtime.gc_cycles_per_cell", "count/cell", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
	return out
}
