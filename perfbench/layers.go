package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/ecc"
	"abft/internal/op"
	"abft/internal/par"
)

// Layer micro-measurements. Each times a public function of one layer
// from outside, on data sized like the workload's own, and reports the
// median over probeRounds rounds of the mean cost per unit of work.
const (
	probeRounds = 5
	probeRound  = 40 * time.Millisecond
)

// nsPer calls fn until a round of probeRound has passed, probeRounds
// times, and returns the median of the rounds' ns per unit (fn does
// units units of work per call).
func nsPer(units float64, fn func() error) (float64, error) {
	if err := fn(); err != nil { // warm caches and lazy set-up
		return 0, err
	}
	rounds := make([]float64, probeRounds)
	for i := range rounds {
		calls := 0
		start := time.Now()
		for time.Since(start) < probeRound {
			if err := fn(); err != nil {
				return 0, err
			}
			calls++
		}
		rounds[i] = float64(time.Since(start).Nanoseconds()) / (float64(calls) * units)
	}
	return median(rounds), nil
}

// probeLayers measures the ecc, core, csr/sell/coo and par probes into
// m, on the workload's matrix plain and vectors of its length. elem is
// the element scheme the workload runs with; the CSR probes always use
// full SECDED64 and none, the calibration row.
func probeLayers(plain *csr.Matrix, elem core.Scheme, seed int64, m map[string]float64) error {
	n := plain.Rows()
	rng := rand.New(rand.NewSource(seed))
	workers := runtime.GOMAXPROCS(0)

	// ecc: the dense-vector SECDED64 codeword layout.
	codec := ecc.MustSECDED(64, []int{0, 1, 2, 3, 4, 5, 6, 7})
	words := make([]ecc.Word4, 4096)
	for i := range words {
		words[i][0] = rng.Uint64()
		codec.Encode(&words[i])
	}
	var err error
	if m["ecc.secded64_check_ns"], err = nsPer(float64(len(words)), func() error {
		for i := range words {
			if r, _ := codec.Check(&words[i]); r != ecc.OK {
				return fmt.Errorf("ecc probe: clean codeword %d checked %v", i, r)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if m["ecc.secded64_encode_ns"], err = nsPer(float64(len(words)), func() error {
		for i := range words {
			codec.Encode(&words[i])
		}
		return nil
	}); err != nil {
		return err
	}
	// CRC32C: codewords the length of one SELL-C-sigma lane of the
	// matrix's mean row width, a 12-byte (value, column) record per entry.
	crcBytes := 12 * ((plain.NNZ() + plain.Rows() - 1) / plain.Rows())
	msgs := make([]byte, 512*crcBytes)
	rng.Read(msgs)
	sums := make([]uint32, 512)
	for i := range sums {
		sums[i] = ecc.Checksum(msgs[i*crcBytes:(i+1)*crcBytes], ecc.Auto)
	}
	if m["ecc.crc32c_check_ns"], err = nsPer(float64(len(sums)), func() error {
		for i := range sums {
			if ecc.Checksum(msgs[i*crcBytes:(i+1)*crcBytes], ecc.Auto) != sums[i] {
				return fmt.Errorf("ecc probe: crc mismatch at codeword %d", i)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// core: verified reads under each read mode, and the fused CG tail.
	vecs := make([]*core.Vector, 4)
	for i := range vecs {
		vecs[i] = seededVector(n, core.SECDED64, rng)
	}
	v := vecs[0]
	dst := make([]float64, v.Blocks()*4)
	reads := []struct {
		name string
		fn   func(b0, b1 int, dst []float64) error
	}{
		{"core.read_ns_per_elem.exclusive", v.ReadBlocksInto},
		{"core.read_ns_per_elem.shared", v.ReadBlocksSharedInto},
		{"core.read_ns_per_elem.unverified", v.ReadBlocksUnverifiedInto},
	}
	for _, r := range reads {
		if m[r.name], err = nsPer(float64(n), func() error { return r.fn(0, v.Blocks(), dst) }); err != nil {
			return err
		}
	}
	x, p, r, q := vecs[0], vecs[1], vecs[2], vecs[3]
	if m["core.fused_tail_ns_per_row"], err = nsPer(float64(n), func() error {
		_, err := core.FusedAxpyDot(x, 1e-9, p, r, q, core.FusedOptions{Workers: workers})
		return err
	}); err != nil {
		return err
	}

	// Kernels: one SpMV per format on the workload's matrix.
	xv := seededVector(plain.Cols32(), core.SECDED64, rng)
	yv := core.NewVector(plain.Rows(), core.SECDED64)
	rawX := seededVector(plain.Cols32(), core.None, rng)
	rawY := core.NewVector(plain.Rows(), core.None)
	kernels := []struct {
		name string
		f    op.Format
		cfg  op.Config
		x, y *core.Vector
	}{
		{"csr.apply_ns_per_nnz", op.CSR, op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}, xv, yv},
		{"csr.raw_apply_ns_per_nnz", op.CSR, op.Config{}, rawX, rawY},
		{"sell.apply_ns_per_nnz", op.SELLCS, op.Config{Scheme: elem}, xv, yv},
		{"coo.apply_ns_per_nnz", op.COO, op.Config{Scheme: elem}, xv, yv},
	}
	for _, k := range kernels {
		a, err := op.New(k.f, plain, k.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		if m[k.name], err = nsPer(float64(plain.NNZ()), func() error {
			return a.Apply(k.y, k.x, workers)
		}); err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
	}

	// par: one pool dispatch over one empty range per processor.
	ranges := make([][2]int, workers)
	for i := range ranges {
		ranges[i] = [2]int{i, i + 1}
	}
	noop := func(lo, hi int) error { return nil }
	if m["par.dispatch_ns"], err = nsPer(1, func() error { return par.Run(ranges, noop) }); err != nil {
		return err
	}
	return nil
}

// seededVector returns a protected vector of n seeded values in [-1, 1).
func seededVector(n int, s core.Scheme, rng *rand.Rand) *core.Vector {
	data := make([]float64, n)
	for i := range data {
		data[i] = 2*rng.Float64() - 1
	}
	return core.VectorFromSlice(data, s)
}
