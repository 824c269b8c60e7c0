package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/experiments"
	"dcra/internal/sample"
	"dcra/internal/sched"
	"dcra/internal/sim"
	"dcra/internal/stats"
	"dcra/internal/workload"
)

// Each check accepts the program's real output on a small sweep and
// rejects a doctored copy of it.

// smallSweep is one Figure 5 workload group under every Figure 5 policy.
func smallSweep(mode string) []campaign.Cell {
	var cells []campaign.Cell
	for _, c := range fig5Cells(mode) {
		if c.WID == "MIX2.g1" {
			cells = append(cells, c)
		}
	}
	return cells
}

func testEnv(t *testing.T) *env {
	return &env{dir: t.TempDir(), ref: &reference{}}
}

func rejects(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, errCheck) {
		t.Errorf("%s: check accepted a doctored output (err %v)", what, err)
	}
}

func TestExactCellCheck(t *testing.T) {
	e := testEnv(t)
	b := &fig5Bench{e: e, mode: campaign.ModeExact, s: e.newSuite(campaign.ModeExact), cells: smallSweep(campaign.ModeExact)}
	results, _, err := runCells(b.s.Engine, b.cells, nil, b.s.RunCell, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := b.baselines()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkExactCells(b.cells, results, base); err != nil {
		t.Fatalf("real output rejected: %v", err)
	}
	results[2].Hmean += 1e-9
	_, err = checkExactCells(b.cells, results, base)
	rejects(t, "Hmean off by 1e-9", err)
}

func TestParityCheck(t *testing.T) {
	e := testEnv(t)
	exact := e.newSuite(campaign.ModeExact)
	er, _, err := runCells(exact.Engine, smallSweep(campaign.ModeExact), nil, exact.RunCell, nil)
	if err != nil {
		t.Fatal(err)
	}
	sampled := e.newSuite(campaign.ModeSampled)
	cells := smallSweep(campaign.ModeSampled)
	sr, _, err := runCells(sampled.Engine, cells, nil, sampled.RunCell, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSampledWindows(sr); err != nil {
		t.Fatalf("real windows rejected: %v", err)
	}
	rows := parityRows(cells, sr, throughputs(er))
	if err := checkParity(rows); err != nil {
		t.Fatalf("real output rejected: %v", err)
	}
	rows[1].sampled = rows[1].exact + 20*rows[1].halfWidth
	rejects(t, "sampled cell far outside its interval", checkParity(rows))

	p := sample.FromConfig(adaptiveSampling())
	for i, r := range sr {
		if len(r.Sampled.WindowThroughput) < p.Windows {
			wide := *r.Sampled
			wide.ThroughputCI = 2 * r.Throughput
			sr[i].Sampled = &wide
			rejects(t, "cell stopped early with an interval wider than the stopping target", checkSampledWindows(sr))
			return
		}
	}
	t.Fatal("no sampled cell stopped before the window cap")
}

func TestAllowedMisses(t *testing.T) {
	// Binomial(144, 0.003): P(X >= 7) ~ 4e-7 < 1e-6 <= P(X >= 6).
	if got := allowedMisses(144); got != 6 {
		t.Errorf("allowedMisses(144) = %d, want 6", got)
	}
	if got := allowedMisses(4); got != 2 {
		t.Errorf("allowedMisses(4) = %d, want 2", got)
	}
}

func TestStoreCheck(t *testing.T) {
	e := testEnv(t)
	st, err := campaign.Open(filepath.Join(e.dir, "store"), e.storeParams())
	if err != nil {
		t.Fatal(err)
	}
	cells := smallSweep(campaign.ModeSampled)
	for i, c := range cells {
		if err := st.Put(c, sim.Result{Policy: c.Pol, Throughput: float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := storedResults(st, cells); err != nil {
		t.Fatalf("complete store rejected: %v", err)
	}
	if err := os.Remove(filepath.Join(e.dir, "store", "cells", cells[3].Key()+".json")); err != nil {
		t.Fatal(err)
	}
	rd, err := campaign.Open(filepath.Join(e.dir, "store"), e.storeParams())
	if err != nil {
		t.Fatal(err)
	}
	_, err = storedResults(rd, cells)
	rejects(t, "cell missing from the store", err)
}

// stalls commits until stallAt cycles, then never again.
type stalls struct {
	cycle, stallAt uint64
	st             stats.Stats
}

func (s *stalls) Run(n uint64) {
	for range n {
		if s.cycle < s.stallAt {
			s.st.Threads[0].Committed++
		}
		s.cycle++
	}
}

func (s *stalls) Stats() *stats.Stats { return &s.st }

func TestProgressProbe(t *testing.T) {
	w, err := workload.ByID("ILP2.g1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Baseline()
	m, err := cpu.New(cfg, w.Profiles(), newPolicy(experiments.PolDCRA, cfg), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkProgress(m, probeChunk, 40_000); err != nil {
		t.Fatalf("healthy machine rejected: %v", err)
	}
	stalled := &stalls{stallAt: 12_000, st: stats.Stats{Threads: make([]stats.ThreadStats, 1)}}
	if err := checkProgress(stalled, probeChunk, 40_000); err == nil {
		t.Error("stalled probe accepted")
	}
}

func TestSchedCheck(t *testing.T) {
	cfg := config.Baseline()
	picker, err := sched.PickerByName("FCFS")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sched.Run(sched.Config{
		Machine: cfg, Contexts: 2, Picker: picker,
		Alloc:    func() cpu.Policy { return newPolicy(experiments.PolDCRA, cfg) },
		Arrivals: sched.Arrivals{Kind: sched.Open, Jobs: 4, Gap: 2_000},
		Benches:  experiments.SchedServiceMix, Budget: 4_000, Seed: 1, MaxCycles: 400_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSchedTrial(tr, cfg.CommitWidth); err != nil {
		t.Fatalf("real trial rejected: %v", err)
	}
	tr.Jobs[1].Budget += 100
	rejects(t, "job budget larger than what committed", checkSchedTrial(tr, cfg.CommitWidth))
}

func TestSchedTrialFromWID(t *testing.T) {
	b := &schedBench{e: testEnv(t)}
	if _, err := b.setup(); err != nil {
		t.Fatal(err)
	}
	var want []sched.Arrivals
	for _, a := range experiments.SchedArrivalPoints() {
		for range len(experiments.SchedPickers) * len(experiments.SchedAllocs) {
			want = append(want, a)
		}
	}
	if len(b.trials) != len(want) {
		t.Fatalf("%d trials, want %d", len(b.trials), len(want))
	}
	for i, tr := range b.trials {
		if tr.Arrivals != want[i] || tr.Contexts != 4 || tr.Budget != 24_000 {
			t.Errorf("trial %d (%s): %+v, %d contexts, budget %d", i, b.cells[i], tr.Arrivals, tr.Contexts, tr.Budget)
		}
	}
	bad := b.cells[0]
	bad.WID = strings.Replace(bad.WID, ":j", ":x", 1)
	if _, err := schedTrial(bad, nil); err == nil {
		t.Errorf("malformed WID %q accepted", bad.WID)
	}
}

func TestSchedSameTrialCheck(t *testing.T) {
	// A small trial in the sched experiment's WID format.
	c := campaign.Cell{Cfg: config.Baseline(), WID: "sched:c2:burst:g2000:k2:j4:b4000", Pol: "SJF+DCRA"}
	cfg, err := schedTrial(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sched.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := &schedBench{e: testEnv(t), cells: []campaign.Cell{c}}
	if err := b.checkSameTrial(0, tr); err != nil {
		t.Fatalf("real trial rejected: %v", err)
	}
	tr.Stats.Cycles++
	rejects(t, "trial that differs from the experiment's", b.checkSameTrial(0, tr))
}

func TestStageShares(t *testing.T) {
	m, err := microMachine(config.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for t0 := time.Now(); time.Since(t0) < 400*time.Millisecond; {
		m.Run(10_000)
	}
	pprof.StopCPUProfile()
	shares, err := stageShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, st := range stages {
		sum += shares[st.name]
	}
	if sum <= 0 || sum > 1 {
		t.Errorf("stages cover %.2f of a kernel-only profile: %v", sum, shares)
	}
	for _, st := range []string{"fetch", "dispatch", "issue"} {
		if shares[st] == 0 {
			t.Errorf("%s missing from a kernel profile: %v", st, shares)
		}
	}
}

func TestPyQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles %v", q)
	}
}

func TestBenchmarkJSONMatchesReport(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the report %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), report %s (%s)",
				i, spec.PerLayer[i].Name, spec.PerLayer[i].Unit, m.name, m.unit)
		}
	}
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(names))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadsByName[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not a workload", w.Name)
		}
	}
}
