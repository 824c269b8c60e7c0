package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"dcra/internal/campaign"
	"dcra/internal/sim"
)

// reference.json pins what the program computes at the simulation seed:
// results digests of the three deterministic workloads and the exact
// throughputs the sampled parity check compares against. `perfbench regen`
// rewrites it; see README.md, Reference data.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Warmup          uint64    `json:"warmup"`
	Measure         uint64    `json:"measure"`
	Seed            uint64    `json:"seed"`
	ExactDigest     string    `json:"fig5_exact_digest"`
	SampledDigest   string    `json:"fig5_sampled_digest"`
	SchedDigest     string    `json:"sched_digest"`
	ExactThroughput []float64 `json:"fig5_exact_throughput"`
}

// loadReference parses the embedded reference data. Data recorded under
// another protocol pins nothing, so it is dropped.
func loadReference() *reference {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: ignoring unreadable reference.json:", err)
		return &reference{}
	}
	if r.Warmup != warmupCycles || r.Measure != measureCycles || r.Seed != defaultSeed {
		return &reference{}
	}
	return &r
}

func (r *reference) fig5Digest(mode string) string {
	if mode == campaign.ModeExact {
		return r.ExactDigest
	}
	return r.SampledDigest
}

func (r *reference) exactThroughputs() []float64 {
	if len(r.ExactThroughput) != len(fig5Cells(campaign.ModeExact)) {
		return nil
	}
	return r.ExactThroughput
}

// resultsDigest is the SHA-256 of the results' JSON encoding — the bytes
// the campaign store persists — in cell order.
func resultsDigest(results []sim.Result) (string, error) {
	data, err := json.Marshal(results)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// referencePath is the reference file regen writes, relative to the
// repository root.
const referencePath = "perfbench/reference.json"

// cmdRegen recomputes the reference data by running the workloads' rounds
// once, untimed, against an empty reference so nothing is pinned, and
// rewrites the reference file. Run it from the repository root in a change
// that moves simulated results on purpose. A failed output check leaves the
// file as it was.
func cmdRegen(args []string) int {
	if len(args) != 0 {
		fmt.Fprintln(os.Stderr, "perfbench regen: takes no arguments")
		return 2
	}
	ref, err := regenReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench regen:", err)
		return 1
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench regen:", err)
		return 1
	}
	if err := os.WriteFile(referencePath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench regen:", err)
		return 1
	}
	fmt.Println("wrote", referencePath)
	return 0
}

func regenReference() (*reference, error) {
	e := &env{ref: &reference{}}
	ref := &reference{Warmup: warmupCycles, Measure: measureCycles, Seed: defaultSeed}
	ex := &fig5Bench{e: e, mode: campaign.ModeExact}
	if _, err := oneRound(ex, nil); err != nil {
		return nil, err
	}
	ref.ExactDigest = ex.digest
	ref.ExactThroughput = throughputs(ex.results)
	sm := &fig5Bench{e: e, mode: campaign.ModeSampled, exact: ref.ExactThroughput}
	if _, err := oneRound(sm, nil); err != nil {
		return nil, err
	}
	ref.SampledDigest = sm.digest
	fmt.Printf("%d of %d sampled cells outside their interval (allowed %d)\n",
		parityMisses(parityRows(sm.cells, sm.results, ref.ExactThroughput)), len(sm.cells), allowedMisses(len(sm.cells)))
	sb := &schedBench{e: e}
	if _, err := oneRound(sb, nil); err != nil {
		return nil, err
	}
	ref.SchedDigest = sb.digest
	return ref, nil
}
