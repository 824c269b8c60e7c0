package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/core"
	"dcra/internal/cpu"
	"dcra/internal/experiments"
	"dcra/internal/policy"
	"dcra/internal/sample"
	"dcra/internal/sim"
	"dcra/internal/stats"
	"dcra/internal/workload"
)

// Measurement protocol of every workload: BenchmarkFigure5's windows.
const (
	warmupCycles  = 15_000
	measureCycles = 60_000
	// defaultSeed is the simulation seed of every run: sim.NewRunner's, the
	// seed the experiments and their tests are built around. At other seeds
	// the program fails some of the checks below (README.md, Faults), and a
	// check that fails at some seeds only would make the benchmark fail at
	// random.
	defaultSeed = 0x5eed_dc2a
)

// env is what every workload of one run shares.
//
// The run's --seed orders the work: each round submits its cells or
// trials to the engine, and the coordinator cuts its lease ranges, in a
// fresh order drawn from a stream seeded by --seed, which also seeds the
// coordinator's backoff jitter. Results do not depend on the order; host
// timing does, and a median over rounds averages the orders out.
type env struct {
	order uint64
	dir   string
	ref   *reference
	rng   *rand.Rand
}

// perm is the next submission order of n operations.
func (e *env) perm(n int) []int {
	if e.rng == nil {
		e.rng = rand.New(rand.NewPCG(e.order, 0x0bde))
	}
	return e.rng.Perm(n)
}

// storeParams is the campaign store protocol of the benchmark's runs.
func (e *env) storeParams() campaign.Params {
	return campaign.Params{Warmup: warmupCycles, Measure: measureCycles, Seed: defaultSeed}
}

// adaptiveSampling is the sampled workloads' protocol.
func adaptiveSampling() config.SamplingConfig {
	return sample.DeriveAdaptive(warmupCycles, measureCycles).Config()
}

// newSuite builds an in-process suite on the benchmark's protocol and seed.
func (e *env) newSuite(mode string) *experiments.Suite {
	s := experiments.NewSuite()
	s.Runner.Warmup, s.Runner.Measure, s.Runner.Seed = warmupCycles, measureCycles, defaultSeed
	s.Engine = sim.NewEngine(workers)
	if mode == campaign.ModeSampled {
		s.Mode = mode
		s.Sampling = adaptiveSampling()
	}
	return s
}

// fig5Cells is Figure 5's sweep as a suite in mode demands it.
func fig5Cells(mode string) []campaign.Cell {
	if mode == campaign.ModeExact {
		return experiments.Figure5Sweep().Cells
	}
	return experiments.ApplyModeSampling(experiments.Figure5Sweep(), mode, adaptiveSampling()).Cells
}

// runCells computes cells on the engine, submitting them in order (nil:
// as listed) and timing each one. Results come back in the cells' order.
func runCells(eng *sim.Engine, cells []campaign.Cell, order []int, run func(campaign.Cell) (sim.Result, error), tc *tracing) ([]sim.Result, []time.Duration, error) {
	results := make([]sim.Result, len(cells))
	durs := make([]time.Duration, len(cells))
	errs := make([]error, len(cells))
	eng.Run(len(cells), func(k int) {
		i := k
		if order != nil {
			i = order[k]
		}
		end := tc.cellSpan(cells[i].WID + "/" + cells[i].Pol)
		t0 := time.Now()
		results[i], errs[i] = run(cells[i])
		durs[i] = time.Since(t0)
		end()
	})
	return results, durs, sim.FirstError(errs)
}

// fig5Bench runs Figure 5's 144 cells in one mode on an in-process suite.
type fig5Bench struct {
	e    *env
	mode string

	s     *experiments.Suite
	cells []campaign.Cell
	order []int

	digest  string       // first round's results digest
	results []sim.Result // last round's results
	exact   []float64    // exact throughputs the sampled parity check compares against
}

func (b *fig5Bench) setup() (func(), error) {
	b.s = b.e.newSuite(b.mode)
	b.cells = fig5Cells(b.mode)
	b.order = b.e.perm(len(b.cells))
	return func() {}, nil
}

func (b *fig5Bench) run(tc *tracing) (*round, error) {
	if tc != nil {
		b.s.Instrument(tc.reg, nil)
	}
	r := &round{cells: len(b.cells), attempted: len(b.cells)}
	tm, err := startTimer(tc)
	if err != nil {
		return nil, err
	}
	results, durs, err := runCells(b.s.Engine, b.cells, b.order, b.s.RunCell, tc)
	if err != nil {
		tm.stop(r)
		return nil, err
	}
	endRender := tc.span("render figure 5", "experiments")
	t0 := time.Now()
	f5, err := experiments.Figure5(b.s)
	render := time.Since(t0)
	endRender()
	tm.stop(r)
	if err != nil {
		return nil, err
	}
	if tc != nil {
		r.layers = cellLayers(tc, durs, r.wall, statsOf(results), len(b.cells))
		r.layers["experiments.render_ms"] = metric{float64(render.Microseconds()) / 1e3, "ms"}
		sampledLayers(tc, r.layers, results)
		if _, err := storeLayers(b.e, b.e.storeParams(), r.layers, b.cells, results); err != nil {
			return nil, err
		}
	}

	if b.mode == campaign.ModeExact {
		// The livelock probes: outside the timed part, counted every round.
		for _, pol := range []experiments.PolicyName{experiments.PolICount, experiments.PolDCRA} {
			r.attempted++
			end := tc.span("progress probe "+string(pol), "cpu")
			stall, err := probeLivelock(pol)
			end()
			if err != nil {
				return nil, err
			}
			if stall != nil {
				r.failed++
			}
		}
	}

	b.results = results
	digest, err := resultsDigest(results)
	if err != nil {
		return nil, err
	}
	if err := b.checkDigest(digest); err != nil {
		return r, err
	}
	if b.mode == campaign.ModeExact {
		base, err := b.baselines()
		if err != nil {
			return nil, err
		}
		return r, checkFig5Exact(b.cells, results, base, f5)
	}
	if err := checkSampledWindows(results); err != nil {
		return r, err
	}
	exact, err := b.exactThroughputs()
	if err != nil {
		return nil, err
	}
	return r, checkParity(parityRows(b.cells, results, exact))
}

// checkDigest pins a round's results: identical to the first round's, and
// to the reference digest when one is recorded.
func (b *fig5Bench) checkDigest(digest string) error {
	if b.digest == "" {
		b.digest = digest
		want := b.e.ref.fig5Digest(b.mode)
		if want != "" && want != digest {
			return checkf("%s results digest %s, reference %s: simulated results changed; see README, Reference data",
				b.modeName(), digest, want)
		}
		return nil
	}
	if digest != b.digest {
		return checkf("%s results digest %s differs from the first round's %s", b.modeName(), digest, b.digest)
	}
	return nil
}

func (b *fig5Bench) modeName() string {
	if b.mode == campaign.ModeExact {
		return "exact"
	}
	return "sampled"
}

// baselines runs the "bench:<name>" BASE cells — the single-thread ICOUNT
// runs Hmean divides by — for every benchmark Figure 5 uses.
func (b *fig5Bench) baselines() (map[string]float64, error) {
	var cells []campaign.Cell
	seen := map[string]bool{}
	for _, c := range b.cells {
		w, err := workload.ByID(c.WID)
		if err != nil {
			return nil, err
		}
		for _, n := range w.Names {
			if !seen[n] {
				seen[n] = true
				cells = append(cells, campaign.Cell{Cfg: c.Cfg, WID: "bench:" + n, Pol: "BASE"})
			}
		}
	}
	results, _, err := runCells(b.s.Engine, cells, nil, b.s.RunCell, nil)
	if err != nil {
		return nil, err
	}
	base := map[string]float64{}
	for i, c := range cells {
		st := results[i].Stats
		base[c.WID[len("bench:"):]] = float64(st.Threads[0].Committed) / float64(st.Cycles)
	}
	return base, nil
}

// exactThroughputs returns the exact throughput of every Figure 5 cell at
// the simulation seed, recorded in the reference data.
func (b *fig5Bench) exactThroughputs() ([]float64, error) {
	if b.exact != nil {
		return b.exact, nil
	}
	tp := b.e.ref.exactThroughputs()
	if tp == nil {
		return nil, fmt.Errorf("reference.json records no exact throughputs for this protocol; run regen (README.md, Reference data)")
	}
	return tp, nil
}

func throughputs(results []sim.Result) []float64 {
	tp := make([]float64, len(results))
	for i, r := range results {
		tp[i] = r.Throughput
	}
	return tp
}

func statsOf(results []sim.Result) []*stats.Stats {
	out := make([]*stats.Stats, len(results))
	for i, r := range results {
		out[i] = r.Stats
	}
	return out
}

// checkFig5Exact recomputes every exact cell's throughput and Hmean from
// its statistics and the single-thread baselines, checks the pipeline's
// physical limits, and checks Figure 5's headline direction.
func checkFig5Exact(cells []campaign.Cell, results []sim.Result, base map[string]float64, f5 experiments.Figure5Result) error {
	hmeans, err := checkExactCells(cells, results, base)
	if err != nil {
		return err
	}
	return checkGains(cells, hmeans, f5)
}

// checkExactCells checks each cell against its own statistics and returns
// the recomputed Hmeans.
func checkExactCells(cells []campaign.Cell, results []sim.Result, base map[string]float64) ([]float64, error) {
	hmeans := make([]float64, len(cells))
	for i, c := range cells {
		r := results[i]
		w, err := workload.ByID(c.WID)
		if err != nil {
			return nil, err
		}
		st := r.Stats
		if st == nil || st.Cycles == 0 || len(st.Threads) != len(w.Names) {
			return nil, checkf("cell %s: statistics missing or mis-sized", c)
		}
		var tp, inv float64
		for t, name := range w.Names {
			if st.Threads[t].Committed == 0 {
				return nil, checkf("cell %s: thread %d (%s) committed nothing in the measured window", c, t, name)
			}
			ipc := float64(st.Threads[t].Committed) / float64(st.Cycles)
			tp += ipc
			single, ok := base[name]
			if !ok || single <= 0 {
				return nil, checkf("cell %s: no baseline for %s", c, name)
			}
			inv += single / ipc
		}
		hmeans[i] = float64(len(w.Names)) / inv
		if !agree(tp, r.Throughput) {
			return nil, checkf("cell %s: throughput %v, recomputed %v", c, r.Throughput, tp)
		}
		if !agree(hmeans[i], r.Hmean) {
			return nil, checkf("cell %s: Hmean %v, recomputed %v", c, r.Hmean, hmeans[i])
		}
		if width := float64(c.Cfg.CommitWidth); tp > width {
			return nil, checkf("cell %s: throughput %v above the commit width %v", c, tp, width)
		}
	}
	return hmeans, nil
}

// checkGains recomputes DCRA's mean Hmean gain over each other Figure 5
// policy — per workload type (threads x kind) the mean Hmean of its groups,
// then the mean relative gain over the types — checks it is above 0 and
// matches what Figure 5 reports.
func checkGains(cells []campaign.Cell, hmeans []float64, f5 experiments.Figure5Result) error {
	sum := map[experiments.PolicyName]map[string]float64{}
	groups := map[string]int{} // workload type -> DCRA cells
	for i, c := range cells {
		w, err := workload.ByID(c.WID)
		if err != nil {
			return err
		}
		pn := experiments.PolicyName(c.Pol)
		if sum[pn] == nil {
			sum[pn] = map[string]float64{}
		}
		typ := fmt.Sprintf("%s%d", w.Kind, w.Threads)
		sum[pn][typ] += hmeans[i]
		if pn == experiments.PolDCRA {
			groups[typ]++
		}
	}
	for _, pn := range experiments.Figure5Policies {
		if pn == experiments.PolDCRA {
			continue
		}
		var gain float64
		for typ, k := range groups {
			d, o := sum[experiments.PolDCRA][typ]/float64(k), sum[pn][typ]/float64(k)
			gain += 100 * (d - o) / o
		}
		gain /= float64(len(groups))
		if gain <= 0 {
			return checkf("DCRA's mean Hmean gain over %s is %.2f%%, not above 0", pn, gain)
		}
		if got := f5.AvgHmeanImprovement[pn]; math.Abs(got-gain) > 1e-9*math.Max(1, math.Abs(gain)) {
			return checkf("Figure 5 reports DCRA's gain over %s as %v, recomputed %v", pn, got, gain)
		}
	}
	return nil
}

// agree reports whether two computations of one quantity agree to within
// floating-point reassociation.
func agree(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// checkSampledWindows checks each sampled cell ran between the adaptive
// protocol's window floor and cap and reported a positive interval, and
// that a cell which stopped before the cap met the stopping rule: its
// relative half-width is within the protocol's TargetRelCIPpm. That target
// is the ceiling on the interval width a sampling change can give up
// without widening the protocol itself.
func checkSampledWindows(results []sim.Result) error {
	p := sample.FromConfig(adaptiveSampling())
	target := float64(p.TargetRelCIPpm) / 1e6
	for i, r := range results {
		s := r.Sampled
		if s == nil {
			return checkf("sampled cell %d: no sampling summary", i)
		}
		k := len(s.WindowThroughput)
		if k < p.MinWindows || k > p.Windows {
			return checkf("sampled cell %d: %d windows, outside [%d, %d]", i, k, p.MinWindows, p.Windows)
		}
		if !(s.ThroughputCI > 0) {
			return checkf("sampled cell %d: confidence interval %v is not above 0", i, s.ThroughputCI)
		}
		if k < p.Windows && !(s.ThroughputCI <= target*s.Throughput) {
			return checkf("sampled cell %d: stopped after %d windows with half-width %v, above %v of its mean %v",
				i, k, s.ThroughputCI, target, s.Throughput)
		}
	}
	return nil
}

// parityRow compares one sampled cell with its exact throughput.
type parityRow struct {
	cell           campaign.Cell
	exact, sampled float64
	halfWidth      float64
}

func parityRows(cells []campaign.Cell, results []sim.Result, exact []float64) []parityRow {
	rows := make([]parityRow, len(cells))
	for i, c := range cells {
		rows[i] = parityRow{cell: c, exact: exact[i], sampled: results[i].Throughput, halfWidth: results[i].Sampled.ThroughputCI}
	}
	return rows
}

// Parity tolerances. Each cell's interval claims 99.7% coverage, so over n
// cells the number of misses is at most Binomial(n, 0.003) if the claim
// holds. The check fails when the observed count would have probability
// below parityAlpha under that claim — a pass tolerates statistical misses,
// a fail marks a biased estimator — or when any cell sits beyond
// parityGross half-widths, which no interval excursion explains.
const (
	parityMissRate = 0.003
	parityAlpha    = 1e-6
	parityGross    = 10
)

// allowedMisses is the largest miss count whose upper tail under
// Binomial(n, parityMissRate) is at least parityAlpha.
func allowedMisses(n int) int {
	p := parityMissRate
	pmf := math.Pow(1-p, float64(n)) // P(X = 0)
	tail := 1.0                      // P(X >= k)
	for k := 0; k < n; k++ {
		tail -= pmf // now P(X >= k+1)
		if tail < parityAlpha {
			return k
		}
		pmf *= float64(n-k) / float64(k+1) * p / (1 - p)
	}
	return n
}

// parityMisses counts the cells outside their interval.
func parityMisses(rows []parityRow) int {
	misses := 0
	for _, r := range rows {
		if math.Abs(r.sampled-r.exact) > r.halfWidth {
			misses++
		}
	}
	return misses
}

func checkParity(rows []parityRow) error {
	for _, r := range rows {
		if err := math.Abs(r.sampled - r.exact); err > parityGross*r.halfWidth {
			return checkf("sampled cell %s: throughput %v is %.1f half-widths from exact %v",
				r.cell, r.sampled, err/r.halfWidth, r.exact)
		}
	}
	if misses, allowed := parityMisses(rows), allowedMisses(len(rows)); misses > allowed {
		return checkf("%d of %d sampled cells miss their 99.7%% interval of exact throughput; at most %d expected",
			misses, len(rows), allowed)
	}
	return nil
}

// Livelock probe: ILP3.g2 at seed 1 must commit in every stretch of
// probeChunk cycles for probeCycles cycles.
const (
	probeWorkload = "ILP3.g2"
	probeSeed     = 1
	probeChunk    = 5_000
	probeCycles   = 200_000
)

// newPolicy builds a Figure 5 allocation policy the way the suite does.
func newPolicy(pn experiments.PolicyName, cfg config.Config) cpu.Policy {
	if pn == experiments.PolDCRA {
		return core.New(core.OptionsForLatency(cfg.MemLatency))
	}
	return policy.NewICount()
}

// committer is the part of cpu.Machine the progress probe drives.
type committer interface {
	Run(cycles uint64)
	Stats() *stats.Stats
}

// probeLivelock returns the probe's stall, if any, and an error only when
// the machine could not be built.
func probeLivelock(pn experiments.PolicyName) (stall, err error) {
	w, err := workload.ByID(probeWorkload)
	if err != nil {
		return nil, err
	}
	cfg := config.Baseline()
	m, err := cpu.New(cfg, w.Profiles(), newPolicy(pn, cfg), probeSeed)
	if err != nil {
		return nil, err
	}
	return checkProgress(m, probeChunk, probeCycles), nil
}

// checkProgress runs m in chunks and fails on the first chunk in which no
// thread commits a uop.
func checkProgress(m committer, chunk, cycles uint64) error {
	var last uint64
	for at := uint64(0); at < cycles; at += chunk {
		m.Run(chunk)
		var total uint64
		for _, t := range m.Stats().Threads {
			total += t.Committed
		}
		if total == last {
			return fmt.Errorf("no uop committed in cycles [%d, %d)", at, at+chunk)
		}
		last = total
	}
	return nil
}
