package solvers

import (
	"testing"

	"abft/internal/core"
	"abft/internal/precond"
)

// TestPCGFallbackJacobiProtected flips one bit of the inverse diagonal
// PCG builds for itself when no preconditioner is configured, in the
// middle of the solve. The inverse diagonal is resident protected
// state: SECDED64 must correct the flip (the solve then matches an
// undisturbed one bit-for-bit) and SED must detect it, never letting it
// fold silently into the Krylov basis.
func TestPCGFallbackJacobiProtected(t *testing.T) {
	orig := newJacobi
	defer func() { newJacobi = orig }()
	a, xTrue, b := spdSystem(t, 7, 7)
	solve := func(s core.Scheme, flip bool) (Result, []float64, core.CounterSnapshot, error) {
		var pre precond.Preconditioner
		newJacobi = func(d []float64, opt precond.Options) (precond.Preconditioner, error) {
			p, err := orig(d, opt)
			pre = p
			return p, err
		}
		var c core.Counters
		m := protect(t, a, s, s)
		x := core.NewVector(a.Rows(), s)
		x.SetCounters(&c)
		opt := Options{Tol: 1e-10}
		if flip {
			opt.StateHook = func(it int, _ []*core.Vector) {
				if it == 3 {
					pre.RawState()[0].Raw()[5] ^= 1 << 40
				}
			}
		}
		res, err := PCG(MatrixOperator{M: m}, x, core.VectorFromSlice(b, s), opt)
		got := make([]float64, a.Rows())
		if err == nil {
			err = x.CopyTo(got)
		}
		return res, got, c.Snapshot(), err
	}

	clean, want, _, err := solve(core.SECDED64, false)
	if err != nil || !clean.Converged {
		t.Fatalf("clean solve: %v converged=%v", err, clean.Converged)
	}
	res, got, snap, err := solve(core.SECDED64, true)
	if err != nil {
		t.Fatalf("secded64: correctable flip surfaced: %v", err)
	}
	if snap.Corrected == 0 {
		t.Fatal("secded64: flip in the inverse diagonal was not corrected")
	}
	if res.Iterations != clean.Iterations {
		t.Fatalf("secded64: %d iterations, undisturbed %d", res.Iterations, clean.Iterations)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("secded64 row %d: %v, undisturbed %v", i, got[i], want[i])
		}
	}
	if d := maxAbsDiff(got, xTrue); d > 1e-7 {
		t.Fatalf("secded64: solution off by %g", d)
	}

	if _, _, snap, err := solve(core.SED, true); !IsFault(err) || snap.Detected == 0 {
		t.Fatalf("sed: flip in the inverse diagonal not detected: err=%v detected=%d", err, snap.Detected)
	}
}
