package solvers

import (
	"math"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
)

func blockSystem(t *testing.T, k int) (Operator, *core.MultiVector, *core.MultiVector) {
	t.Helper()
	a := csr.Laplacian2D(7, 6)
	m := protect(t, a, core.SECDED64, core.SECDED64)
	n := a.Rows()
	xcols := make([]*core.Vector, k)
	bcols := make([]*core.Vector, k)
	for j := range xcols {
		xcols[j] = core.NewVector(n, core.SECDED64)
		bs := make([]float64, n)
		for i := range bs {
			bs[i] = float64((i*13+j*7)%29) - 14
		}
		bcols[j] = core.VectorFromSlice(bs, core.SECDED64)
	}
	x, err := core.WrapMultiVector(xcols...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.WrapMultiVector(bcols...)
	if err != nil {
		t.Fatal(err)
	}
	return MatrixOperator{M: m, Workers: 1}, x, b
}

// TestBlockCGMatchesSingleCG is the solver-level parity smoke: the full
// conformance matrix lives in internal/op's suite.
func TestBlockCGMatchesSingleCG(t *testing.T) {
	const k = 3
	a, x, b := blockSystem(t, k)
	br, err := BlockCG(a, x, b, Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	if !br.Converged || len(br.Columns) != k {
		t.Fatalf("batch result: %+v", br.Result)
	}
	_, xs, bs := blockSystem(t, k)
	for j := 0; j < k; j++ {
		res, err := CG(a, xs.Col(j), bs.Col(j), Options{Tol: 1e-11})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, a.Rows())
		got := make([]float64, a.Rows())
		if err := xs.Col(j).CopyTo(want); err != nil {
			t.Fatal(err)
		}
		if err := x.Col(j).CopyTo(got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("col %d row %d: %x vs %x", j, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		c := br.Columns[j]
		if c.Iterations != res.Iterations || c.ResidualNorm != res.ResidualNorm || !c.Converged {
			t.Fatalf("col %d: %+v vs single iterations=%d norm=%v", j, c, res.Iterations, res.ResidualNorm)
		}
	}
	// The batch-wide view aggregates the worst column.
	worstIt, worstNorm := 0, 0.0
	for _, c := range br.Columns {
		if c.Iterations > worstIt {
			worstIt = c.Iterations
		}
		if c.ResidualNorm > worstNorm {
			worstNorm = c.ResidualNorm
		}
	}
	if br.Iterations != worstIt || br.ResidualNorm != worstNorm {
		t.Fatalf("aggregate %d/%v, worst column %d/%v",
			br.Iterations, br.ResidualNorm, worstIt, worstNorm)
	}
}

func TestBlockCGValidation(t *testing.T) {
	a, x, b := blockSystem(t, 2)
	if _, err := BlockCG(a, x, mustWrap(t, core.NewVector(x.Len(), core.SECDED64)), Options{}); err == nil {
		t.Fatal("width mismatch accepted")
	}
	short := mustWrap(t, core.NewVector(8, core.SECDED64), core.NewVector(8, core.SECDED64))
	if _, err := BlockCG(a, x, short, Options{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := BlockCG(a, x, b, Options{MaxIter: -1}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

func mustWrap(t *testing.T, vs ...*core.Vector) *core.MultiVector {
	t.Helper()
	mv, err := core.WrapMultiVector(vs...)
	if err != nil {
		t.Fatal(err)
	}
	return mv
}

// TestSolveBatchDispatch covers the three dispatch arms: the CG family
// routes through BlockCG (pcg defaulting its Jacobi preconditioner),
// other solvers fall back to per-column solves with aggregated
// bookkeeping, and the single-RHS Solve entry accepts "blockcg".
func TestSolveBatchDispatch(t *testing.T) {
	for _, kind := range []Kind{KindCG, KindPCG, KindBlockCG, KindJacobi} {
		a, x, b := blockSystem(t, 2)
		opt := Options{Tol: 1e-9}
		if kind == KindJacobi {
			opt.MaxIter = 20000
		}
		br, err := SolveBatch(kind, a, x, b, opt)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !br.Converged || len(br.Columns) != 2 {
			t.Fatalf("%v: %+v", kind, br.Result)
		}
	}

	k, err := ParseKind("blockcg")
	if err != nil || k != KindBlockCG || k.String() != "blockcg" {
		t.Fatalf("ParseKind: %v %v", k, err)
	}
	a, x, b := blockSystem(t, 1)
	res, err := Solve(KindBlockCG, a, x.Col(0), b.Col(0), Options{Tol: 1e-9})
	if err != nil || !res.Converged {
		t.Fatalf("Solve(blockcg): %+v %v", res, err)
	}
}

// TestSolveBatchPCGChargesEachColumn: batched PCG's fallback Jacobi
// shares one inverse diagonal across the columns but charges each
// application to the column it preconditions. With every column solving
// the same system, each column's counters must read the same — column 0
// is not charged for the others' preconditioner reads.
func TestSolveBatchPCGChargesEachColumn(t *testing.T) {
	const k = 3
	a := csr.Laplacian2D(7, 6)
	m := protect(t, a, core.SECDED64, core.SECDED64)
	bs := make([]float64, a.Rows())
	for i := range bs {
		bs[i] = float64((i*13)%29) - 14
	}
	counters := make([]core.Counters, k)
	xs := make([]*core.Vector, k)
	bv := make([]*core.Vector, k)
	for j := range xs {
		xs[j] = core.NewVector(a.Rows(), core.SECDED64)
		bv[j] = core.VectorFromSlice(bs, core.SECDED64)
		xs[j].SetCounters(&counters[j])
		bv[j].SetCounters(&counters[j])
	}
	op := MatrixOperator{M: m, Workers: 1}
	if _, err := SolveBatch(KindPCG, op, mustWrap(t, xs...), mustWrap(t, bv...), Options{Tol: 1e-10}); err != nil {
		t.Fatal(err)
	}
	if counters[0].Checks() == 0 {
		t.Fatal("no checks counted")
	}
	for j := 1; j < k; j++ {
		if got, want := counters[j].Checks(), counters[0].Checks(); got != want {
			t.Errorf("column %d: %d checks, column 0 %d", j, got, want)
		}
	}
}
