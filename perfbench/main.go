// Command perfbench is the repository's same-box benchmark: one process runs
// one workload through the simulator's Go API, times it, checks every output
// against independent recomputations or properties of the method, and prints
// one JSON result line. See README.md for the workloads, metrics and faults.
//
//	perfbench --workload fig5-exact --seed 1 --seconds 10 --trace 0
//	perfbench steady -n 5        # steadiness report over every workload
//	perfbench regen              # rewrite reference.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// buildDir holds every file a run writes (stores, traces, profiles); it is
// the directory run.sh builds into, relative to the repository root.
const buildDir = ".bench_build"

// workers is the engine width and the HTTP connection cap of every
// workload: the benchmark box's core count, fixed so figures from a wider
// host stay comparable.
var workers = min(2, runtime.NumCPU())

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch os.Args[1] {
		case "steady":
			os.Exit(cmdSteady(os.Args[2:]))
		case "regen":
			os.Exit(cmdRegen(os.Args[2:]))
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown command %q (want steady or regen)\n", os.Args[1])
		os.Exit(2)
	}
	os.Exit(cmdRun(os.Args[1:]))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errCheck marks a failed output check: the run completes and reports
// correct=false, as opposed to an error that stops the run.
var errCheck = errors.New("output check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 0, "input seed: orders the work submitted to the engine and the coordinator")
	seconds := fs.Float64("seconds", 10, "measure whole rounds until this many seconds have been timed")
	traced := fs.Int("trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloadsByName[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	dir, err := os.MkdirTemp(buildDir, "run-"+*name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{order: *seed, dir: dir, ref: loadReference()}
	res, err := runWorkload(e, mk(e), *name, *seconds, *traced == 1)
	if err != nil && !errors.Is(err, errCheck) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// round is what one timed repetition of a workload reports.
type round struct {
	cells     int           // operations completed in the timed part
	attempted int           // operations attempted, timed part and probes
	failed    int           // operations that failed (probes only)
	wall      time.Duration // the timed part
	allocMB   float64       // heap allocated in the timed part
	layers    map[string]metric
}

// bench is one workload: setup builds a round's state (timed on its own for
// setup_s) and returns its teardown; run executes and checks one round.
type bench interface {
	setup() (teardown func(), err error)
	run(tc *tracing) (*round, error)
}

// setup_s is the median, over setupSamples batches, of the mean set-up
// time in a batch of as many consecutive set-ups as fill setupBatchTime.
// A set-up of well under a millisecond, timed alone, reads mostly the page
// faults and cache misses of a heap a collection has just swept. The
// collector is paused during a batch and runs between batches: with it
// running, set-up times on a two-CPU box fell into two modes, some
// processes reading up to twice as slow as others.
const (
	setupSamples   = 101
	setupBatchTime = 2 * time.Millisecond
)

func runWorkload(e *env, b bench, name string, seconds float64, traced bool) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	// Set-up is timed first, as the one-time cost it is. Timed after the
	// rounds, it would also depend on what the rounds leave on the heap — a
	// number of pooled machines that differs between processes — which
	// every collection in a batch marks.
	setups, err := timeSetups(b)
	if err != nil {
		return nil, err
	}
	var checkErr error
	var rounds []*round
	var timed time.Duration
	for len(rounds) == 0 || timed.Seconds() < seconds {
		r, err := oneRound(b, nil)
		if err != nil && !errors.Is(err, errCheck) {
			return nil, err
		}
		if err != nil && checkErr == nil {
			checkErr = err
		}
		rounds = append(rounds, r)
		timed += r.wall
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	var rates, allocs, walls []float64
	for _, r := range rounds {
		rates = append(rates, float64(r.cells)/r.wall.Seconds())
		allocs = append(allocs, r.allocMB)
		walls = append(walls, r.wall.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s order seed %d: %d rounds of %v s\n", name, e.order, len(rounds), walls)

	if !traced {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["cells_per_s"] = metric{median(rates), "1/s"}
		res.Metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	} else {
		tc := newTracing(name)
		r, err := oneRound(b, tc)
		if err != nil && !errors.Is(err, errCheck) {
			return nil, err
		}
		if err != nil && checkErr == nil {
			checkErr = err
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		if err := tc.finish(r); err != nil {
			return nil, err
		}
		layers, err := layerMicrobenchmarks(tc)
		if err != nil {
			return nil, err
		}
		for k, v := range r.layers {
			layers[k] = v
		}
		layers["obs.trace_overhead_pct"] = metric{100 * (r.wall.Seconds()/median(walls) - 1), "%"}
		layers["sim.alloc_mb"] = metric{median(allocs), "MB"}
		for _, m := range perLayerMetrics {
			v, ok := layers[m.name]
			if !ok && (checkErr != nil || !drivenBy(name, m.name)) {
				v, ok = metric{0, m.unit}, true
			}
			if !ok {
				return nil, fmt.Errorf("traced run of %s did not measure %s", name, m.name)
			}
			res.Metrics[m.name] = v
		}
		if err := tc.write(); err != nil {
			return nil, err
		}
	}
	if checkErr != nil {
		res.Correct = false
	}
	return res, checkErr
}

// timeSetups returns setupSamples per-set-up times. Doubling batches,
// which also warm the heap, size the batch first.
func timeSetups(b bench) ([]float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	batch := func(n int) (time.Duration, error) {
		runtime.GC()
		var total time.Duration
		for range n {
			t0 := time.Now()
			td, err := b.setup()
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
			td()
		}
		return total, nil
	}
	n := 1
	for {
		d, err := batch(n)
		if err != nil {
			return nil, err
		}
		if d >= setupBatchTime {
			break
		}
		n *= 2
	}
	times := make([]float64, setupSamples)
	for i := range times {
		d, err := batch(n)
		if err != nil {
			return nil, err
		}
		times[i] = d.Seconds() / float64(n)
	}
	return times, nil
}

// oneRound sets up, runs and tears down one round. The heap is collected
// twice first — sync.Pool keeps what the previous round's machine pools hold
// through one collection — so every round starts from the same heap.
func oneRound(b bench, tc *tracing) (*round, error) {
	td, err := b.setup()
	if err != nil {
		return nil, err
	}
	defer td()
	runtime.GC()
	runtime.GC()
	return b.run(tc)
}

// timer brackets a timed part: wall time, heap bytes allocated and, in a
// traced round, the CPU profile.
type timer struct {
	tc     *tracing
	t0     time.Time
	alloc0 uint64
}

func startTimer(tc *tracing) (timer, error) {
	if err := tc.startProfile(); err != nil {
		return timer{}, err
	}
	return timer{tc: tc, t0: time.Now(), alloc0: heapAllocBytes()}, nil
}

func (t timer) stop(r *round) {
	r.wall = time.Since(t.t0)
	r.allocMB = float64(heapAllocBytes()-t.alloc0) / 1e6
	t.tc.stopProfile()
}

// heapAllocBytes is the cumulative Go heap allocation, read without
// stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank-interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func durQuantileMs(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Microseconds()) / 1e3
	}
	return quantile(xs, q)
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// scratch returns a fresh directory under the run's directory.
func (e *env) scratch(prefix string) (string, error) {
	return os.MkdirTemp(e.dir, prefix)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
