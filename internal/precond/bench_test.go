package precond_test

import (
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/solvers"
)

// benchmarkPCG times a full preconditioned CG solve of a protected
// Poisson operator; the CI benchmark smoke step runs one iteration of
// each to catch bit-rot in the preconditioner paths.
func benchmarkPCG(b *testing.B, kind precond.Kind) {
	src := csr.Laplacian2D(32, 32)
	pm, err := op.New(op.CSR, src, op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64})
	if err != nil {
		b.Fatal(err)
	}
	a := solvers.MatrixOperator{M: pm, Workers: 1}
	opt := solvers.Options{Tol: 1e-8, MaxIter: 10000}
	if kind != precond.None {
		pre, err := precond.New(kind, src, precond.Options{Scheme: core.SECDED64})
		if err != nil {
			b.Fatal(err)
		}
		opt.Preconditioner = pre
	}
	rhs := rhsVector(src.Rows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := core.NewVector(src.Rows(), core.SECDED64)
		rv := core.VectorFromSlice(rhs, core.SECDED64)
		res, err := solvers.CG(a, x, rv, opt)
		if err != nil || !res.Converged {
			b.Fatalf("solve: %v converged=%v", err, res.Converged)
		}
	}
}

func BenchmarkPCGBaselineCG(b *testing.B) { benchmarkPCG(b, precond.None) }
func BenchmarkPCGJacobi(b *testing.B)     { benchmarkPCG(b, precond.Jacobi) }
func BenchmarkPCGBlockJacobi(b *testing.B) {
	benchmarkPCG(b, precond.BlockJacobi)
}
func BenchmarkPCGSGS(b *testing.B) { benchmarkPCG(b, precond.SGS) }
