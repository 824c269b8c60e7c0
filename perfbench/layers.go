package main

import (
	"fmt"
	"path/filepath"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/core"
	"dcra/internal/cpu"
	"dcra/internal/sim"
	"dcra/internal/trace"
)

// Layer microbenchmarks of a traced run: each layer timed on its own, on
// the 4-thread DCRA machine BenchmarkSimulatorSpeed uses.
const (
	microReps     = 5
	kernelCycles  = 50_000
	ffGap         = 16_384 // per-thread uops per budget call, about one sampling gap
	ffCalls       = 8
	ffWarmTail    = 3_072 // the adaptive protocol's warm tail
	traceUops     = 400_000
	machineBuilds = 21
)

func microMachine(cfg config.Config) (*cpu.Machine, error) {
	return cpu.New(cfg, []trace.Profile{
		trace.MustProfile("gzip"), trace.MustProfile("mcf"),
		trace.MustProfile("art"), trace.MustProfile("eon"),
	}, core.Default(), 1)
}

// layerMicrobenchmarks measures the cpu, trace and sim layers directly.
func layerMicrobenchmarks(tc *tracing) (map[string]metric, error) {
	cfg := config.Baseline()
	l := map[string]metric{}
	end := tc.span("layer microbenchmarks", "bench")
	defer end()

	var news []float64
	for range machineBuilds {
		t0 := time.Now()
		if _, err := microMachine(cfg); err != nil {
			return nil, err
		}
		news = append(news, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	l["cpu.new_us"] = metric{median(news), "us"}

	m, err := microMachine(cfg)
	if err != nil {
		return nil, err
	}
	m.Run(5_000)
	var ns []float64
	for range microReps {
		t0 := time.Now()
		m.Run(kernelCycles)
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/kernelCycles)
	}
	l["cpu.ns_per_cycle"] = metric{median(ns), "ns"}

	ff := func(tail uint64) (float64, error) {
		var rates []float64
		for range microReps {
			m, err := microMachine(cfg)
			if err != nil {
				return 0, err
			}
			m.Run(5_000)
			budgets := make([]uint64, m.NumThreads())
			t0 := time.Now()
			for range ffCalls {
				for t := range budgets {
					budgets[t] = ffGap
				}
				if tail == 0 {
					m.FastForwardBudgets(budgets)
				} else {
					m.FastForwardBudgetsTail(budgets, tail)
				}
			}
			uops := float64(ffCalls * ffGap * len(budgets))
			rates = append(rates, uops/time.Since(t0).Seconds()/1e6)
		}
		return median(rates), nil
	}
	full, err := ff(0)
	if err != nil {
		return nil, err
	}
	tail, err := ff(ffWarmTail)
	if err != nil {
		return nil, err
	}
	l["cpu.ff_full_muops_per_s"] = metric{full, "Muop/s"}
	l["cpu.ff_tail_muops_per_s"] = metric{tail, "Muop/s"}

	var gens []float64
	for range microReps {
		s := trace.NewStream(trace.MustProfile("gzip"), 0, 1)
		t0 := time.Now()
		for i := uint64(0); i < traceUops; i++ {
			s.At(i)
			if i%64 == 63 {
				s.Release(i + 1)
			}
		}
		gens = append(gens, traceUops/time.Since(t0).Seconds()/1e6)
	}
	l["trace.gen_muops_per_s"] = metric{median(gens), "Muop/s"}

	pool := sim.NewMachinePool()
	profiles := []trace.Profile{
		trace.MustProfile("gzip"), trace.MustProfile("mcf"),
		trace.MustProfile("art"), trace.MustProfile("eon"),
	}
	var gets []float64
	for i := range machineBuilds + 1 {
		t0 := time.Now()
		pm, err := pool.Get(cfg, profiles, core.Default(), 1)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		pm.Run(200) // touch the machine like a cell would
		pool.Put(pm)
		if i > 0 { // the first Get builds the machine the rest reuse
			gets = append(gets, float64(d.Nanoseconds())/1e3)
		}
	}
	l["sim.pool_get_us"] = metric{median(gets), "us"}
	return l, nil
}

// storeLayers writes a round's results into a fresh campaign store and
// reads them back through a second handle (so every Get reads the disk),
// timing each call. It returns the filled store's directory.
func storeLayers(e *env, p campaign.Params, l map[string]metric, cells []campaign.Cell, results []sim.Result) (string, error) {
	dir, err := e.scratch("layer-store-")
	if err != nil {
		return "", err
	}
	st, err := campaign.Open(dir, p)
	if err != nil {
		return "", err
	}
	var puts, gets []time.Duration
	for i, c := range cells {
		t0 := time.Now()
		if err := st.Put(c, results[i]); err != nil {
			return "", err
		}
		puts = append(puts, time.Since(t0))
	}
	rd, err := campaign.Open(dir, p)
	if err != nil {
		return "", err
	}
	for _, c := range cells {
		t0 := time.Now()
		_, ok, err := rd.Get(c)
		gets = append(gets, time.Since(t0))
		if err != nil {
			return "", err
		}
		if !ok {
			return "", fmt.Errorf("store lost cell %s between Put and Get", c)
		}
	}
	n, err := dirBytes(filepath.Join(dir, "cells"))
	if err != nil {
		return "", err
	}
	l["store.put_us_p50"] = metric{1e3 * durQuantileMs(puts, 0.5), "us"}
	l["store.get_us_p50"] = metric{1e3 * durQuantileMs(gets, 0.5), "us"}
	l["store.bytes_per_cell"] = metric{float64(n) / float64(len(cells)), "B"}
	return dir, nil
}
