package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"abft/internal/par"
)

// A run builds its protected state at least setupMinRepeats times and
// until the builds add up to setupBudget, and reports the median as
// setup_s: a build of milliseconds is timed hundreds of times, one of a
// fifth of a second about thirty times. Spreading the builds over
// seconds averages the host's interference, which varies over seconds.
const (
	setupMinRepeats = 9
	setupBudget     = 6 * time.Second
)

// medianSetup runs build as setup asks and returns the median wall time
// in seconds. discard releases the previous build before the next one,
// so each build starts from a collected heap that holds only the
// inputs; neither the release nor the collection is timed.
func medianSetup(build func() error, discard func()) (float64, error) {
	var ts []float64
	total := 0.0
	for len(ts) < setupMinRepeats || total < setupBudget.Seconds() {
		if len(ts) > 0 {
			discard()
		}
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
		total += ts[len(ts)-1]
	}
	return median(ts), nil
}

// heapMB is the live heap after two full collections, in MB (1e6
// bytes); the second frees what the first moved to the sync.Pool victim
// caches, which would otherwise count by chance. A workload's
// resident_mb is heapMB after its set-up minus heapMB before it: the
// heap the protected state holds, without the inputs it was built from
// or the raw twin.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// dispatches is the kernel pool's cumulative dispatch count.
func dispatches() uint64 {
	_, d := par.Stats()
	return d
}

// bitsHash fingerprints a solution by the exact bits of its values.
func bitsHash(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// maxIterGrowth bounds the protected solve's extra iterations over the
// raw twin's (paper section VI-B: iteration counts stay essentially
// unchanged).
const maxIterGrowth = 0.01

// paperNormRelDiff is the paper's section VI-B figure: protected and
// unprotected solutions within 2.0e-11 percent.
const paperNormRelDiff = 2.0e-13

// maskBound is the relative solution-norm difference from the raw twin
// that SECDED64 vector protection can cause in a solve of iterations
// iterations: each stored value loses its 8 low mantissa bits, an error
// of at most 2^-44 relative, and the solver stores its iterate once per
// iteration.
func maskBound(iterations int) float64 {
	return float64(iterations) * math.Ldexp(1, -(52-8))
}

// checkTwin compares a protected solution with its raw twin's: the
// solution norms within maskBound, iterations within maxIterGrowth. It
// returns the relative norm difference, so the caller can also report it
// against the paper's figure.
func checkTwin(x, rawX []float64, iterations, rawIterations int) (float64, error) {
	d := relDiff(norm2(x), norm2(rawX))
	if b := maskBound(iterations); !(d <= b) {
		return d, fmt.Errorf("solution norm differs from the raw twin by %.3g (bound %.3g)", d, b)
	}
	if g := float64(iterations-rawIterations) / float64(rawIterations); g >= maxIterGrowth {
		return d, fmt.Errorf("%d iterations against the raw twin's %d", iterations, rawIterations)
	}
	return d, nil
}

// quartiles returns the first and third quartiles of xs (linear
// interpolation between order statistics).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.75)
}

// fasterThanRaw reports the impossible result a protected run must never
// show: its whole interquartile range below the raw twin's.
func fasterThanRaw(prot, raw []float64) bool {
	if len(prot) == 0 || len(raw) == 0 {
		return false
	}
	_, p3 := quartiles(prot)
	r1, _ := quartiles(raw)
	return p3 < r1
}

// latencyMetrics fills the latency end-to-end metrics from per-operation
// protected and raw wall times (seconds) and records the tail's
// percentile and sample count.
func latencyMetrics(rep *report, prot, raw []float64) {
	t := tailOf(prot)
	rep.e2e["latency_p50_s"] = median(prot)
	rep.e2e["latency_tail_s"] = t.Value
	rep.e2e["raw_latency_p50_s"] = median(raw)
	rep.meta["latency_tail"] = t
	rep.meta["samples"] = map[string]int{"protected": len(prot), "raw": len(raw)}
	if t.Beyond < minBeyond {
		rep.meta["latency_tail_note"] = "too few samples for a percentile with 10 beyond it: the tail is the upper quartile"
	}
	if fasterThanRaw(prot, raw) {
		rep.fail("protected latency (q3 %.4g s) below the raw twin's q1 beyond the spread", median(prot))
	}
}
