package solvers

import (
	"abft/internal/core"
	"abft/internal/precond"
)

// PCG solves A x = b by explicitly preconditioned conjugate gradients —
// the TeaLeaf tl_preconditioner_type path. It is CG with the
// preconditioner made first-class: Options.Preconditioner supplies
// z = M^-1 r each iteration (the ECC-protected preconditioners of
// internal/precond satisfy the interface), and when none is configured
// a Jacobi preconditioner is built from the operator's verified
// diagonal, so "pcg" always preconditions — unlike KindCG, which runs
// unpreconditioned unless told otherwise.
func PCG(a Operator, x, b *core.Vector, opt Options) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	opt = opt.withDefaults()
	if opt.Preconditioner == nil {
		pre, err := jacobiFallback(a, x, opt.Workers)
		if err != nil {
			return Result{}, err
		}
		opt.Preconditioner = pre
	}
	return CG(a, x, b, opt)
}

// jacobiFallback builds the preconditioner PCG, the Jacobi solver and
// batched PCG use when none is configured: the protected Jacobi of
// internal/precond over a's verified diagonal. The inverse diagonal is
// stored under the solve vectors' scheme with their counters attached,
// so a flip in it is corrected or detected like any other protected
// state.
func jacobiFallback(a Operator, v *core.Vector, workers int) (precond.Preconditioner, error) {
	d := make([]float64, a.Rows())
	if err := a.Diagonal(d); err != nil {
		return nil, err
	}
	pre, err := newJacobi(d, precond.Options{Scheme: v.Scheme(), Workers: workers})
	if err != nil {
		return nil, err
	}
	pre.SetCounters(v.Counters())
	return pre, nil
}

// columnJacobi is batched PCG's fallback: one protected inverse diagonal
// serves every column, and each application charges its reads and
// corrections to the counters of the column it preconditions, so each
// column counts what its own PCG solve would. BlockCG preconditions its
// columns one at a time, so re-attaching the counters per call is
// race-free.
type columnJacobi struct{ precond.Preconditioner }

// Apply computes z = D^-1 r, accounting into r's counters.
func (c columnJacobi) Apply(z, r *core.Vector) error {
	c.SetCounters(r.Counters())
	return c.Preconditioner.Apply(z, r)
}

// newJacobi is jacobiFallback's constructor, a variable so tests can
// reach the built preconditioner's state mid-solve.
var newJacobi = precond.JacobiFromDiagonal
