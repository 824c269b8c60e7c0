package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/coord"
	"dcra/internal/experiments"
	"dcra/internal/obs"
	"dcra/internal/sim"
)

// Coordinator protocol of campaign-http. The lease TTL is short so that a
// round stays bounded: a worker ends every lease on a heartbeat tick
// (TTL/3), see README.md, Faults. The poll interval is the wait a worker
// with nothing leasable sleeps before asking again.
const (
	leaseTTL     = 600 * time.Millisecond
	leaseRange   = 8
	pollInterval = 25 * time.Millisecond
)

// campaignBench runs the sampled Figure 5 sweep as a coordinated campaign:
// an in-process coordinator serves leases over HTTP on 127.0.0.1 to
// in-process workers, which stream results into a fresh on-disk store;
// Figure 5 is then rendered strictly from that store.
type campaignBench struct {
	e     *env
	sweep campaign.Sweep

	dir  string
	st   *campaign.Store
	reg  *obs.Registry
	co   *coord.Coordinator
	base string
}

func (b *campaignBench) setup() (func(), error) {
	dir, err := b.e.scratch("store-")
	if err != nil {
		return nil, err
	}
	b.dir = dir
	// The coordinator cuts lease ranges from the sweep's order, so the run's
	// order reshuffles which cells share a lease.
	cells := fig5Cells(campaign.ModeSampled)
	b.sweep = campaign.Sweep{Name: "fig5+sampled"}
	for _, i := range b.e.perm(len(cells)) {
		b.sweep.Cells = append(b.sweep.Cells, cells[i])
	}
	if b.st, err = campaign.Open(dir, b.e.storeParams()); err != nil {
		return nil, err
	}
	b.reg = obs.NewRegistry()
	b.co, err = coord.New("fig5", b.sweep, b.st, coord.Options{
		RangeSize:    leaseRange,
		LeaseTTL:     leaseTTL,
		PollInterval: pollInterval,
		Seed:         b.e.order,
		Checkpoint:   filepath.Join(dir, "coordinator.json"),
		Obs:          b.reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	srv := &http.Server{Handler: coord.NewHTTPHandler(b.co)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
		os.RemoveAll(dir)
	}, nil
}

// workerRun is one worker's timings; only its own goroutine writes them.
type workerRun struct {
	err       error
	wall      time.Duration
	cells     []time.Duration
	transport []time.Duration // lease, complete and fail calls
	leases    []time.Duration
	completes []time.Duration
}

// timedRunner times each cell a worker computes.
type timedRunner struct {
	s  *experiments.Suite
	w  *workerRun
	tc *tracing
}

func (t *timedRunner) RunCell(c campaign.Cell) (sim.Result, error) {
	end := t.tc.cellSpan(c.WID + "/" + c.Pol)
	t0 := time.Now()
	r, err := t.s.RunCell(c)
	t.w.cells = append(t.w.cells, time.Since(t0))
	end()
	return r, err
}

// timedTransport is the traced round's decorator around a worker's
// coord.Transport: it times the worker loop's own calls. Heartbeats run on
// the worker's heartbeat goroutine and pass through untimed.
type timedTransport struct {
	coord.Transport
	w    *workerRun
	tc   *tracing
	lane int
}

func timeCall[Req, Resp any](t *timedTransport, name string, call func(Req) (Resp, error), req Req, into *[]time.Duration) (Resp, error) {
	end := t.tc.tr.Span(tracePIDCoord, t.lane, name, "coord")
	t0 := time.Now()
	resp, err := call(req)
	d := time.Since(t0)
	end()
	t.w.transport = append(t.w.transport, d)
	if into != nil {
		*into = append(*into, d)
	}
	return resp, err
}

func (t *timedTransport) Lease(req coord.LeaseRequest) (coord.LeaseResponse, error) {
	return timeCall(t, "lease", t.Transport.Lease, req, &t.w.leases)
}

func (t *timedTransport) Complete(req coord.CompleteRequest) (coord.CompleteResponse, error) {
	return timeCall(t, "complete", t.Transport.Complete, req, &t.w.completes)
}

func (t *timedTransport) Fail(req coord.FailRequest) (coord.FailResponse, error) {
	return timeCall(t, "fail", t.Transport.Fail, req, nil)
}

func (b *campaignBench) run(tc *tracing) (*round, error) {
	r := &round{cells: len(b.sweep.Cells), attempted: len(b.sweep.Cells)}
	// One shared connection pool capped at one connection per worker.
	conns := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	defer conns.CloseIdleConnections()
	client := &http.Client{Transport: conns, Timeout: time.Minute}
	runs := make([]*workerRun, workers)
	ws := make([]*coord.Worker, workers)
	for i := range ws {
		wr := &workerRun{}
		runs[i] = wr
		var tp coord.Transport = &coord.HTTPTransport{Base: b.base, Client: client}
		if tc != nil {
			tc.tr.Lane(tracePIDCoord, i, fmt.Sprintf("worker %d transport", i))
			tp = &timedTransport{Transport: tp, w: wr, tc: tc, lane: i}
		}
		ws[i] = &coord.Worker{
			ID:        fmt.Sprintf("w%d", i),
			Transport: tp,
			NewRunner: func(p campaign.Params) (campaign.Runner, error) {
				s := experiments.NewSuite()
				s.Runner.Warmup, s.Runner.Measure, s.Runner.Seed = p.Warmup, p.Measure, p.Seed
				if tc != nil {
					s.Instrument(tc.reg, nil)
				}
				return &timedRunner{s: s, w: wr, tc: tc}, nil
			},
		}
	}

	tm, err := startTimer(tc)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			runs[i].err = w.Run()
			runs[i].wall = time.Since(t0)
		}()
	}
	wg.Wait()
	campaignWall := time.Since(tm.t0)
	rs := b.e.newSuite(campaign.ModeSampled)
	if rs.Store, err = campaign.Open(b.dir, b.e.storeParams()); err != nil {
		tm.stop(r)
		return nil, err
	}
	rs.RequireStore = true
	endRender := tc.span("render figure 5 from the store", "experiments")
	t0 := time.Now()
	_, renderErr := experiments.Figure5(rs)
	render := time.Since(t0)
	endRender()
	tm.stop(r)

	for i, wr := range runs {
		if wr.err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, wr.err)
		}
	}
	if errors.Is(renderErr, experiments.ErrMissingCell) {
		return r, checkf("render from the store: %v", renderErr)
	}
	if renderErr != nil {
		return nil, renderErr
	}
	results, err := b.check(rs)
	if err != nil {
		return r, err
	}
	if tc != nil {
		var cells, leases, completes []time.Duration
		var walls, busy time.Duration
		for _, wr := range runs {
			cells = append(cells, wr.cells...)
			leases = append(leases, wr.leases...)
			completes = append(completes, wr.completes...)
			walls += wr.wall
			busy += sumDur(wr.cells) + sumDur(wr.transport)
		}
		r.layers = cellLayers(tc, cells, campaignWall, statsOf(results), len(results))
		r.layers["experiments.render_ms"] = metric{float64(render.Microseconds()) / 1e3, "ms"}
		r.layers["coord.lease_rtt_ms_p50"] = metric{durQuantileMs(leases, 0.5), "ms"}
		r.layers["coord.complete_rtt_ms_p50"] = metric{durQuantileMs(completes, 0.5), "ms"}
		r.layers["coord.complete_rtt_ms_p90"] = metric{durQuantileMs(completes, 0.9), "ms"}
		r.layers["coord.worker_idle_share"] = metric{1 - busy.Seconds()/walls.Seconds(), "share"}
		overhead := float64(workers)*campaignWall.Seconds() - sumDur(cells).Seconds()
		r.layers["coord.overhead_ms_per_cell"] = metric{1e3 * overhead / float64(len(b.sweep.Cells)), "ms"}
		sampledLayers(tc, r.layers, results)
		if _, err := storeLayers(b.e, b.e.storeParams(), r.layers, fig5Cells(campaign.ModeSampled), results); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// check verifies the campaign left a complete, clean store whose results
// are bit-identical to the in-process sampled sweep's, and that the render
// simulated nothing. It returns the stored results in sweep order.
func (b *campaignBench) check(rs *experiments.Suite) ([]sim.Result, error) {
	status := b.co.Status()
	if status.Done != status.Total || status.Exhausted != 0 || len(b.co.Missing()) != 0 {
		return nil, checkf("campaign ended with %d/%d cells done, %d exhausted", status.Done, status.Total, status.Exhausted)
	}
	if n := b.reg.Snapshot().Counters["coord.verify.failures"]; n != 0 {
		return nil, checkf("%d completion payloads failed verification", n)
	}
	if q := b.st.Quarantined() + rs.Store.Quarantined(); q != 0 {
		return nil, checkf("%d store cells quarantined", q)
	}
	if n := rs.Simulated(); n != 0 {
		return nil, checkf("the render from the store simulated %d cells", n)
	}
	results, err := storedResults(rs.Store, fig5Cells(campaign.ModeSampled))
	if err != nil {
		return nil, err
	}
	digest, err := resultsDigest(results)
	if err != nil {
		return nil, err
	}
	want, err := b.sampledDigest()
	if err != nil {
		return nil, err
	}
	if digest != want {
		return nil, checkf("stored results digest %s, fig5-sampled's %s", digest, want)
	}
	return results, nil
}

// storedResults reads every cell back from the store, failing on a
// missing one.
func storedResults(st *campaign.Store, cells []campaign.Cell) ([]sim.Result, error) {
	results := make([]sim.Result, len(cells))
	for i, c := range cells {
		r, ok, err := st.Get(c)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, checkf("cell %s missing from the store", c)
		}
		results[i] = r
	}
	return results, nil
}

// sampledDigest is fig5-sampled's results digest at the simulation seed,
// recorded in the reference data.
func (b *campaignBench) sampledDigest() (string, error) {
	if d := b.e.ref.fig5Digest(campaign.ModeSampled); d != "" {
		return d, nil
	}
	return "", fmt.Errorf("reference.json records no sampled digest for this protocol; run regen (README.md, Reference data)")
}
