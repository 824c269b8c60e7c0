package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness report reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// cmdSteady runs every workload n times, run i with seed i+1 and in
// alternating workload order, as separate processes of this binary, then
// prints each end-to-end metric's median and quartiles. It flags a metric
// whose quartile spread, as a share of its median, exceeds its bound, a run
// that is not correct, and a workload whose failed share differs between
// runs.
func cmdSteady(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	n := fs.Int("n", 5, "runs per workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	values := map[string]map[string][]float64{} // workload -> metric -> runs
	shares := map[string]map[float64]bool{}     // workload -> failed/attempted seen
	bad := false
	for i := range *n {
		order := append([]string(nil), names...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		seed := uint64(i + 1)
		for _, w := range order {
			res, err := runChild(exe, w, seed, spec.RunSeconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			if !res.Correct {
				fmt.Printf("FLAG %s seed %d: not correct\n", w, seed)
				bad = true
			}
			if values[w] == nil {
				values[w], shares[w] = map[string][]float64{}, map[float64]bool{}
			}
			shares[w][float64(res.Failed)/float64(res.Attempted)] = true
			for k, m := range res.Metrics {
				values[w][k] = append(values[w][k], m.Value)
			}
			fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: %s\n", w, seed, summary(res))
		}
	}
	fmt.Printf("%-14s %-12s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range names {
		if len(shares[w]) > 1 {
			fmt.Printf("FLAG %s: failed share differs between runs: %v\n", w, shares[w])
			bad = true
		}
		for _, m := range spec.EndToEnd {
			xs := values[w][m.Name]
			if len(xs) == 0 {
				fmt.Printf("FLAG %s: %s missing\n", w, m.Name)
				bad = true
				continue
			}
			q := pyQuartiles(xs)
			med := median(xs)
			spread := (q[2] - q[0]) / med
			flag := ""
			if !(spread <= m.Bound) {
				flag, bad = "  FLAG", true
			}
			fmt.Printf("%-14s %-12s %14.6g %14.6g %14.6g %8.4f %6.3f%s\n", w, m.Name, med, q[0], q[2], spread, m.Bound, flag)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// runChild runs one workload in its own process and parses its result line.
func runChild(exe, workload string, seed uint64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return &res, nil
}

func summary(r *result) string {
	var parts []string
	for _, k := range keys(r.Metrics) {
		parts = append(parts, fmt.Sprintf("%s=%.6g", k, r.Metrics[k].Value))
	}
	return fmt.Sprintf("correct=%t failed=%d/%d %s", r.Correct, r.Failed, r.Attempted, strings.Join(parts, " "))
}

func keys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// pyQuartiles returns the quartiles as Python's statistics.quantiles(xs,
// n=4) computes them (the "exclusive" method), the definition the
// benchmark's spread bounds are stated in.
func pyQuartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	if len(d) == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}
