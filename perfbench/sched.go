package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/cpu"
	"dcra/internal/experiments"
	"dcra/internal/sched"
	"dcra/internal/sim"
	"dcra/internal/stats"
)

// schedMaxCycles is the sched experiment's trial horizon at the
// benchmark's windows (internal/experiments/sched.go, schedMaxCycles). The
// WID does not carry it; the first round's cross-check against the
// experiment's own trial catches a drift.
const schedMaxCycles = warmupCycles + 20*measureCycles

// schedBench runs the sched experiment's 18 open-system trials (3 arrival
// processes x 3 pickers x ICOUNT/DCRA) through sched.Run on the engine.
type schedBench struct {
	e *env

	pool   *sim.MachinePool
	eng    *sim.Engine
	cells  []campaign.Cell
	trials []sched.Config
	order  []int

	digest string
}

func (b *schedBench) setup() (func(), error) {
	b.pool = sim.NewMachinePool()
	b.eng = sim.NewEngine(workers)
	b.cells = experiments.SchedSweep().Cells
	b.trials = b.trials[:0]
	for _, c := range b.cells {
		cfg, err := schedTrial(c, b.pool)
		if err != nil {
			return nil, err
		}
		b.trials = append(b.trials, cfg)
	}
	b.order = b.e.perm(len(b.trials))
	return func() {}, nil
}

// schedTrial builds a sched sweep cell's trial from the cell itself: the
// shape from its WID,
//
//	sched:c<contexts>:<kind>:g<gap>[:k<burst>]:j<jobs>:b<budget>
//
// as internal/experiments/sched.go documents it, and the picker and the
// allocation policy from its Pol, "<picker>+<alloc>".
func schedTrial(c campaign.Cell, pool *sim.MachinePool) (sched.Config, error) {
	bad := func() (sched.Config, error) {
		return sched.Config{}, fmt.Errorf("sched sweep cell %s: unexpected WID or policy", c)
	}
	fields := strings.Split(c.WID, ":")
	if len(fields) < 6 || fields[0] != "sched" {
		return bad()
	}
	num := func(f string, tag byte) (uint64, bool) {
		if len(f) < 2 || f[0] != tag {
			return 0, false
		}
		v, err := strconv.ParseUint(f[1:], 10, 64)
		return v, err == nil
	}
	a := sched.Arrivals{Kind: sched.ArrivalKind(fields[2])}
	contexts, ok1 := num(fields[1], 'c')
	gap, ok2 := num(fields[3], 'g')
	rest := fields[4:]
	if a.Kind == sched.Bursty {
		k, ok := num(rest[0], 'k')
		if !ok {
			return bad()
		}
		a.Burst, rest = int(k), rest[1:]
	}
	if len(rest) != 2 {
		return bad()
	}
	jobs, ok3 := num(rest[0], 'j')
	budget, ok4 := num(rest[1], 'b')
	pickerName, allocName, ok5 := strings.Cut(c.Pol, "+")
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
		return bad()
	}
	a.Gap, a.Jobs = gap, int(jobs)
	picker, err := sched.PickerByName(pickerName)
	if err != nil {
		return sched.Config{}, err
	}
	alloc := experiments.PolicyName(allocName)
	if alloc != experiments.PolICount && alloc != experiments.PolDCRA {
		return bad()
	}
	cfg := c.Cfg
	return sched.Config{
		Machine:   cfg,
		Contexts:  int(contexts),
		Alloc:     func() cpu.Policy { return newPolicy(alloc, cfg) },
		Picker:    picker,
		Arrivals:  a,
		Benches:   experiments.SchedServiceMix,
		Budget:    budget,
		Seed:      defaultSeed,
		MaxCycles: schedMaxCycles,
		Pool:      pool,
	}, nil
}

// checkSameTrial reruns one sweep cell through the sched experiment's own
// code path (Suite.RunCell) and checks it matches the benchmark's trial, so
// the horizon, seed and policy construction the WID does not carry cannot
// drift from the experiment's.
func (b *schedBench) checkSameTrial(i int, t *sched.Trial) error {
	s := b.e.newSuite(campaign.ModeExact)
	want, err := s.RunCell(b.cells[i])
	if err != nil {
		return err
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}
	gotJSON, err := json.Marshal(t.Result())
	if err != nil {
		return err
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		return checkf("sched cell %s: the benchmark's trial differs from the sched experiment's", b.cells[i])
	}
	return nil
}

func (b *schedBench) run(tc *tracing) (*round, error) {
	if tc != nil {
		b.pool.SetObs(tc.reg)
	}
	n := len(b.trials)
	r := &round{cells: n, attempted: n}
	trials := make([]*sched.Trial, n)
	durs := make([]time.Duration, n)
	errs := make([]error, n)
	tm, err := startTimer(tc)
	if err != nil {
		return nil, err
	}
	b.eng.Run(n, func(k int) {
		i := b.order[k]
		end := tc.cellSpan(b.cells[i].WID + "/" + b.cells[i].Pol)
		t0 := time.Now()
		trials[i], errs[i] = sched.Run(b.trials[i])
		durs[i] = time.Since(t0)
		end()
	})
	tm.stop(r)
	if err := sim.FirstError(errs); err != nil {
		return nil, err
	}

	var shas strings.Builder
	for _, t := range trials {
		if err := checkSchedTrial(t, b.trials[0].Machine.CommitWidth); err != nil {
			return r, err
		}
		shas.WriteString(t.Summary().EventLogSHA)
	}
	sum := sha256.Sum256([]byte(shas.String()))
	digest := hex.EncodeToString(sum[:])
	if b.digest == "" {
		b.digest = digest
		if want := b.e.ref.SchedDigest; want != "" && want != digest {
			return r, checkf("sched event-log digest %s, reference %s", digest, want)
		}
		// Outside the timed part, once per process.
		if err := b.checkSameTrial(0, trials[0]); err != nil {
			return r, err
		}
	} else if digest != b.digest {
		return r, checkf("sched event-log digest %s differs from the first round's %s", digest, b.digest)
	}

	if tc != nil {
		if err := b.layers(tc, r, trials, durs); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// checkSchedTrial checks a trial served every job, reports a throughput
// that matches its own counts, and committed what its jobs asked for: at
// least the sum of the budgets, and less than one commit group per job
// beyond it (a job departs in the cycle its budget commits).
func checkSchedTrial(t *sched.Trial, commitWidth int) error {
	s := t.Summary()
	if t.Completed != len(t.Jobs) || s.Completed != len(t.Jobs) {
		return checkf("sched trial %s: %d of %d jobs completed", t.PolicyLabel(), t.Completed, len(t.Jobs))
	}
	var budgets uint64
	for _, j := range t.Jobs {
		if !j.Done {
			return checkf("sched trial %s: job %d never departed", t.PolicyLabel(), j.ID)
		}
		budgets += j.Budget
	}
	if want := float64(t.Completed) / float64(t.Cycles) * 1e6; !agree(want, s.JobsPerMCycle) {
		return checkf("sched trial %s: jobs_per_mcycle %v, recomputed %v", t.PolicyLabel(), s.JobsPerMCycle, want)
	}
	var committed uint64
	for _, th := range t.Stats.Threads {
		committed += th.Committed
	}
	if committed < budgets || committed-budgets >= uint64(len(t.Jobs)*commitWidth) {
		return checkf("sched trial %s: committed %d uops for %d budgeted over %d jobs", t.PolicyLabel(), committed, budgets, len(t.Jobs))
	}
	return nil
}

func (b *schedBench) layers(tc *tracing, r *round, trials []*sched.Trial, durs []time.Duration) error {
	sts := make([]*stats.Stats, len(trials))
	results := make([]sim.Result, len(trials))
	var cycles uint64
	var jpm float64
	var turns []float64
	for i, t := range trials {
		sts[i] = t.Stats
		results[i] = t.Result()
		cycles += t.Cycles
		jpm += t.Summary().JobsPerMCycle
		for _, j := range t.Jobs {
			turns = append(turns, float64(j.Turnaround()))
		}
	}
	r.layers = cellLayers(tc, durs, r.wall, sts, len(trials))
	sampledLayers(tc, r.layers, nil)
	r.layers["sched.trial_ms_p50"] = metric{durQuantileMs(durs, 0.5), "ms"}
	r.layers["sched.host_ns_per_cycle"] = metric{float64(sumDur(durs).Nanoseconds()) / float64(cycles), "ns"}
	r.layers["sched.jobs_per_mcycle"] = metric{jpm / float64(len(trials)), "1/Mcycle"}
	r.layers["sched.turnaround_p99_cycles"] = metric{quantile(turns, 0.99), "cycles"}
	dir, err := storeLayers(b.e, b.e.storeParams(), r.layers, b.cells, results)
	if err != nil {
		return err
	}
	// The experiment's table, rendered from the store the layer pass filled.
	rs := b.e.newSuite(campaign.ModeExact)
	st, err := campaign.Open(dir, b.e.storeParams())
	if err != nil {
		return err
	}
	rs.Store, rs.RequireStore = st, true
	end := tc.span("render sched table from the store", "experiments")
	t0 := time.Now()
	_, err = experiments.SchedTable(rs)
	render := time.Since(t0)
	end()
	if err != nil {
		return err
	}
	if n := rs.Simulated(); n != 0 {
		return checkf("the sched table render simulated %d cells", n)
	}
	r.layers["experiments.render_ms"] = metric{float64(render.Microseconds()) / 1e3, "ms"}
	return nil
}
