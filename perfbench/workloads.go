package main

import (
	"sort"
	"strings"

	"dcra/internal/campaign"
)

// workloadsByName builds each workload's bench for a run.
var workloadsByName = map[string]func(e *env) bench{
	"fig5-exact":    func(e *env) bench { return &fig5Bench{e: e, mode: campaign.ModeExact} },
	"fig5-sampled":  func(e *env) bench { return &fig5Bench{e: e, mode: campaign.ModeSampled} },
	"campaign-http": func(e *env) bench { return &campaignBench{e: e} },
	"sched-open":    func(e *env) bench { return &schedBench{e: e} },
}

func workloadNames() []string {
	var names []string
	for n := range workloadsByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// perLayerMetrics is the traced run's report, in BENCHMARK.json's order.
// Layers a workload does not drive (the coordinator outside campaign-http,
// the scheduler outside sched-open, the sampler on exact workloads) report
// 0: no work was done there.
var perLayerMetrics = []struct{ name, unit string }{
	{"cpu.ns_per_cycle", "ns"},
	{"cpu.share.fetch", "share"},
	{"cpu.share.dispatch", "share"},
	{"cpu.share.issue", "share"},
	{"cpu.share.events", "share"},
	{"cpu.share.commit", "share"},
	{"cpu.share.policy", "share"},
	{"cpu.share.cache", "share"},
	{"cpu.ff_full_muops_per_s", "Muop/s"},
	{"cpu.ff_tail_muops_per_s", "Muop/s"},
	{"cpu.new_us", "us"},
	{"trace.gen_muops_per_s", "Muop/s"},
	{"cache.l1i_mpku", "1/kuop"},
	{"cache.l1d_mpku", "1/kuop"},
	{"cache.l2_mpku", "1/kuop"},
	{"sim.pool_get_us", "us"},
	{"sim.pool_hit_ratio", "share"},
	{"sim.cell_ms_p50", "ms"},
	{"sim.cell_ms_p90", "ms"},
	{"sim.engine_busy_share", "share"},
	{"sim.baseline_runs", "count"},
	{"sim.alloc_mb", "MB"},
	{"sample.windows_per_run", "count"},
	{"sample.detailed_cycle_fraction", "share"},
	{"sample.overhead_share", "share"},
	{"sample.ff_muops_per_cell", "Muop"},
	{"sample.ci_half_width_pct", "%"},
	{"experiments.render_ms", "ms"},
	{"store.put_us_p50", "us"},
	{"store.get_us_p50", "us"},
	{"store.bytes_per_cell", "B"},
	{"coord.lease_rtt_ms_p50", "ms"},
	{"coord.complete_rtt_ms_p50", "ms"},
	{"coord.complete_rtt_ms_p90", "ms"},
	{"coord.worker_idle_share", "share"},
	{"coord.overhead_ms_per_cell", "ms"},
	{"sched.trial_ms_p50", "ms"},
	{"sched.host_ns_per_cycle", "ns"},
	{"sched.jobs_per_mcycle", "1/Mcycle"},
	{"sched.turnaround_p99_cycles", "cycles"},
	{"obs.trace_overhead_pct", "%"},
}

// notDriven lists the per-layer metrics of layers each workload does not
// drive; they report 0.
var notDriven = map[string][]string{
	"fig5-exact":    {"coord.", "sched."},
	"fig5-sampled":  {"coord.", "sched."},
	"campaign-http": {"sched."},
	"sched-open":    {"coord."},
}

func drivenBy(workload, metric string) bool {
	for _, prefix := range notDriven[workload] {
		if strings.HasPrefix(metric, prefix) {
			return false
		}
	}
	return true
}
