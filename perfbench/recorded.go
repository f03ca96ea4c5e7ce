package main

import (
	"fmt"
	"runtime"
)

// counts are the exact counts of one solve of a library workload: the
// protected solve's iterations and verify checks, and the raw twin's
// iterations.
type counts struct {
	iterations    int
	checks        uint64
	rawIterations int
}

// recorded holds the counts of each library workload's solve by
// GOMAXPROCS (the kernel pool's partition, and with it the check count,
// follows it). They were recorded on seeds 1 to 12 at GOMAXPROCS 2 and
// seeds 1 and 2 at GOMAXPROCS 1. The seed changes only input values (the
// tealeaf-cg states' energies within 1 +- 5e-4, the irregular-pcg
// right-hand sides), and every seed gave the same counts, so one record
// holds for every seed. A change that alters the counts on purpose
// updates this record with them.
var recorded = map[string]map[int]counts{
	"tealeaf-cg": {
		1: {iterations: 198, checks: 214823623, rawIterations: 198},
		2: {iterations: 198, checks: 214823822, rawIterations: 198},
	},
	"irregular-pcg": {
		1: {iterations: 24, checks: 58851328, rawIterations: 24},
		2: {iterations: 24, checks: 58851328, rawIterations: 24},
	},
}

// checkRecorded compares a solve's counts with the workload's record at
// this GOMAXPROCS: a change that adds checks or iterations fails here
// even when it hits the protected solve and its raw twin alike. The
// returned flag reports whether a record exists; without one the run
// only holds each solve to the first of its input.
func checkRecorded(workload string, got counts) (bool, error) {
	want, ok := recorded[workload][runtime.GOMAXPROCS(0)]
	if !ok {
		return false, nil
	}
	if got != want {
		return true, fmt.Errorf("%d iterations, %d checks, raw twin %d iterations; recorded %d, %d, %d",
			got.iterations, got.checks, got.rawIterations, want.iterations, want.checks, want.rawIterations)
	}
	return true, nil
}
