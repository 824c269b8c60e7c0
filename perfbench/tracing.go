package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"dcra/internal/obs"
	"dcra/internal/sim"
	"dcra/internal/stats"
)

// Trace lane groups of the benchmark's own spans. They stay clear of the
// pid groups the program's tracers use (0, 1, 3, 4 and the sampler's).
const (
	tracePIDBench = 10 // cells and the calls around them
	tracePIDCoord = 11 // coordinator transport calls, one lane per worker
	mainLane      = 100
)

// tracing is the traced round's instrumentation: the benchmark's spans
// around each layer call, the program's own metrics registry, and a CPU
// profile of the timed part.
type tracing struct {
	name  string
	tr    *obs.Tracer
	reg   *obs.Registry
	lanes chan int // free cell lanes, one per worker
	prof  bytes.Buffer
}

func newTracing(name string) *tracing {
	tc := &tracing{name: name, tr: obs.NewTracer(), reg: obs.NewRegistry(), lanes: make(chan int, workers)}
	for i := range workers {
		tc.lanes <- i
	}
	tc.tr.Process(tracePIDBench, "perfbench "+name)
	tc.tr.Lane(tracePIDBench, mainLane, "main")
	return tc
}

// span opens a span on the main lane; a nil tracing records nothing.
func (tc *tracing) span(name, cat string) func() {
	if tc == nil {
		return func() {}
	}
	return tc.tr.Span(tracePIDBench, mainLane, name, cat)
}

// cellSpan opens a span on a free cell lane.
func (tc *tracing) cellSpan(name string) func() {
	if tc == nil {
		return func() {}
	}
	lane := <-tc.lanes
	end := tc.tr.Span(tracePIDBench, lane, name, "cell")
	return func() {
		end()
		tc.lanes <- lane
	}
}

func (tc *tracing) startProfile() error {
	if tc == nil {
		return nil
	}
	return pprof.StartCPUProfile(&tc.prof)
}

func (tc *tracing) stopProfile() {
	if tc != nil {
		pprof.StopCPUProfile()
	}
}

// finish adds the profile's stage shares to the traced round's layers.
func (tc *tracing) finish(r *round) error {
	shares, err := stageShares(tc.prof.Bytes())
	if err != nil {
		return fmt.Errorf("reading the CPU profile: %w", err)
	}
	if r.layers == nil { // a check failed before the round derived its layers
		r.layers = map[string]metric{}
	}
	for _, st := range stages {
		r.layers["cpu.share."+st.name] = metric{shares[st.name], "share"}
	}
	return nil
}

// write saves the Chrome trace and the CPU profile under the build
// directory, where they outlive the run's scratch directory.
func (tc *tracing) write() error {
	base := filepath.Join(buildDir, "perfbench-"+tc.name)
	if err := tc.tr.WriteFile(base + ".trace.json"); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", tc.prof.Bytes(), 0o644)
}

func (tc *tracing) counter(name string) int64 { return tc.reg.Snapshot().Counters[name] }

// cellLayers derives the per-cell, engine, cache and pool metrics of a
// traced round. cells is the number of cells the round asked for, so pool
// draws beyond it are baseline runs.
func cellLayers(tc *tracing, durs []time.Duration, wall time.Duration, sts []*stats.Stats, cells int) map[string]metric {
	l := map[string]metric{
		"sim.cell_ms_p50":       {durQuantileMs(durs, 0.5), "ms"},
		"sim.cell_ms_p90":       {durQuantileMs(durs, 0.9), "ms"},
		"sim.engine_busy_share": {sumDur(durs).Seconds() / (float64(workers) * wall.Seconds()), "share"},
	}
	var committed, l1i, l1d, l2 uint64
	for _, st := range sts {
		for _, t := range st.Threads {
			committed += t.Committed
			l1i += t.L1IMisses
			l1d += t.L1DMisses
			l2 += t.L2DMisses
		}
	}
	mpku := func(n uint64) float64 { return 1000 * float64(n) / float64(max(committed, 1)) }
	l["cache.l1i_mpku"] = metric{mpku(l1i), "1/kuop"}
	l["cache.l1d_mpku"] = metric{mpku(l1d), "1/kuop"}
	l["cache.l2_mpku"] = metric{mpku(l2), "1/kuop"}
	hits, misses := tc.counter("pool.machine.hits"), tc.counter("pool.machine.misses")
	l["sim.pool_hit_ratio"] = metric{float64(hits) / float64(max(hits+misses, 1)), "share"}
	l["sim.baseline_runs"] = metric{float64(max(hits+misses-int64(cells), 0)), "count"}
	return l
}

// sampledLayers adds the sampler's metrics: read from the program's obs
// counters (every sampled run, baselines included) and from the sampled
// cells' summaries. Exact workloads run no sampled cells and report 0.
func sampledLayers(tc *tracing, l map[string]metric, results []sim.Result) {
	runs := float64(tc.counter("sample.runs"))
	det := float64(tc.counter("sample.cycles.detailed"))
	perRun := func(v float64) float64 {
		if runs == 0 {
			return 0
		}
		return v / runs
	}
	l["sample.windows_per_run"] = metric{perRun(float64(tc.counter("sample.windows"))), "count"}
	l["sample.detailed_cycle_fraction"] = metric{perRun(det) / (warmupCycles + measureCycles), "share"}
	overhead := 0.0
	if det > 0 {
		overhead = float64(tc.counter("sample.cycles.overhead")) / det
	}
	l["sample.overhead_share"] = metric{overhead, "share"}
	l["sample.ff_muops_per_cell"] = metric{perRun(float64(tc.counter("sample.uops.fastforwarded"))) / 1e6, "Muop"}
	var ci float64
	var n int
	for _, r := range results {
		if r.Sampled != nil && r.Throughput > 0 {
			ci += 100 * r.Sampled.ThroughputCI / r.Throughput
			n++
		}
	}
	if n > 0 {
		ci /= float64(n)
	}
	l["sample.ci_half_width_pct"] = metric{ci, "%"}
}
