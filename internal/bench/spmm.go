package bench

import (
	"fmt"
	"time"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
)

// spmmWidths are the batch widths the amortization figure sweeps. The
// committed trajectory gates on the endpoints: at k=16 the verified
// per-RHS cost must amortize to well under half of the k=1 cost.
var spmmWidths = []int{1, 4, 16}

// SpMMAmortization measures how the verified read path amortizes over
// batched right-hand sides: protected ApplyBatch wall time per RHS at
// k=1, 4 and 16 for every storage format, against the same format's
// unprotected batch product. The matrix-side codeword checks are paid
// once per pass regardless of k, so the per-RHS quotient falls as the
// width grows — the quantity block-CG and service-side coalescing
// bank on. One extra sample runs the widest CSR batch with parallel
// workers so the trajectory also tracks the sharded-row path under
// GOMAXPROCS > 1.
func SpMMAmortization(opt Options) ([]Row, error) {
	o := opt.withDefaults()
	plain := csr.Laplacian2D(o.NX, o.NX)
	var rows []Row
	for _, f := range op.Formats {
		for _, k := range spmmWidths {
			row, err := o.measureSpMM(f, plain, k, o.Workers)
			if err != nil {
				return nil, fmt.Errorf("bench: spmm %v/k-%d: %w", f, k, err)
			}
			row.Label = fmt.Sprintf("%v/k-%d", f, k)
			o.logf("%-26s %v/rhs (baseline %v)", row.Label, row.Protected, row.Base)
			rows = append(rows, row)
		}
	}
	row, err := o.measureSpMM(op.CSR, plain, 16, 2)
	if err != nil {
		return nil, fmt.Errorf("bench: spmm csr/k-16/workers-2: %w", err)
	}
	row.Label = "csr/k-16/workers-2"
	o.logf("%-26s %v/rhs (baseline %v)", row.Label, row.Protected, row.Base)
	return append(rows, row), nil
}

// measureSpMM follows the measureSpMV protocol — paired unprotected and
// protected batches calibrated to spmvBatchTarget, minimum ratio over
// runs, operators rebuilt per run — but drives the batched kernel and
// normalises the reported durations per right-hand side, so rows of
// different widths are directly comparable.
func (o Options) measureSpMM(f op.Format, plain *csr.Matrix, k, workers int) (Row, error) {
	cols := make([]*core.Vector, k)
	batch := func(m op.Matrix) (time.Duration, error) {
		m.SetCounters(&core.Counters{})
		for j := range cols {
			xs := make([]float64, plain.Cols32())
			for i := range xs {
				xs[i] = float64((i*13+j*7)%29) - 14 + float64((i+j)%7)/8
			}
			cols[j] = core.VectorFromSlice(xs, core.None)
		}
		x, err := core.WrapMultiVector(cols...)
		if err != nil {
			return 0, err
		}
		dst := core.NewMultiVector(m.Rows(), k, core.None)
		run := func(iters int) (time.Duration, error) {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := m.ApplyBatch(dst, x, workers); err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		}
		est, err := run(spmvCalibrateIters)
		if err != nil {
			return 0, err
		}
		iters := spmvCalibrateIters
		if est > 0 {
			iters = int(spmvBatchTarget / (est / spmvCalibrateIters))
		}
		if iters < spmvCalibrateIters {
			iters = spmvCalibrateIters
		}
		d, err := run(iters)
		if err != nil {
			return 0, err
		}
		return d / time.Duration(iters*k), nil
	}
	var best Row
	for r := 0; r < o.Runs; r++ {
		bm, err := op.New(f, plain, op.Config{Scheme: core.None})
		if err != nil {
			return Row{}, err
		}
		pm, err := op.New(f, plain, op.Config{Scheme: core.SECDED64})
		if err != nil {
			return Row{}, err
		}
		base, err := batch(bm)
		if err != nil {
			return Row{}, err
		}
		prot, err := batch(pm)
		if err != nil {
			return Row{}, err
		}
		if r == 0 || overhead(base, prot) < best.OverheadPct {
			best = Row{Base: base, Protected: prot, OverheadPct: overhead(base, prot)}
		}
	}
	return best, nil
}
