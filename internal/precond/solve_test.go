// Preconditioned-solve tests and benchmarks live in the external test
// package: internal/solvers imports internal/precond for its Jacobi
// fallback, so the in-package tests cannot import the solvers.
package precond_test

import (
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/solvers"
)

// rhsVector builds a deterministic, structure-rich right-hand side.
func rhsVector(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((i*13)%29) - 14 + float64(i%7)/8
	}
	return out
}

// TestPCGConvergesFaster: every preconditioner must cut PCG iterations
// below plain CG on the variable-coefficient TeaLeaf-style operator.
func TestPCGConvergesFaster(t *testing.T) {
	src := csr.Laplacian2D(12, 9)
	pm, err := op.New(op.CSR, src, op.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := solvers.MatrixOperator{M: pm, Workers: 1}
	solve := func(pre precond.Preconditioner) solvers.Result {
		b := core.VectorFromSlice(rhsVector(src.Rows()), core.None)
		x := core.NewVector(src.Rows(), core.None)
		opt := solvers.Options{Tol: 1e-10, MaxIter: 10000}
		if pre != nil {
			opt.Preconditioner = pre
		}
		res, err := solvers.CG(a, x, b, opt)
		if err != nil || !res.Converged {
			t.Fatalf("solve: %v converged=%v", err, res.Converged)
		}
		return res
	}
	base := solve(nil)
	for _, k := range []precond.Kind{precond.BlockJacobi, precond.SGS} {
		p, err := precond.New(k, src, precond.Options{Scheme: core.SECDED64})
		if err != nil {
			t.Fatal(err)
		}
		res := solve(p)
		if res.Iterations >= base.Iterations {
			t.Errorf("%v: %d iterations, plain CG %d", k, res.Iterations, base.Iterations)
		}
	}
}
