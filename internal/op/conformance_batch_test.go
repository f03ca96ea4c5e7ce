package op_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"abft/internal/core"
	"abft/internal/op"
	"abft/internal/shard"
)

// batchRefColumns builds k deterministic, mutually distinct source
// columns for the batched-kernel parity tests.
func batchRefColumns(n, k int) [][]float64 {
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = float64((i*13+j*7)%29) - 14 + float64((i+j)%7)/8
		}
	}
	return cols
}

func batchMultiVector(cols [][]float64, s core.Scheme) *core.MultiVector {
	vecs := make([]*core.Vector, len(cols))
	for j := range cols {
		vecs[j] = core.VectorFromSlice(cols[j], s)
	}
	mv, err := core.WrapMultiVector(vecs...)
	if err != nil {
		panic(err)
	}
	return mv
}

// batchOperator builds the operator under test: a single matrix of
// format f, or its shards-band composite.
func batchOperator(t *testing.T, f op.Format, s core.Scheme, shards int) op.Matrix {
	t.Helper()
	cfg := op.Config{Scheme: s, RowPtrScheme: s}
	var m op.Matrix
	var err error
	if shards > 1 {
		m, err = shard.New(shardTestMatrix(), shard.Options{Shards: shards, Format: f, Config: cfg})
	} else {
		m, err = op.New(f, shardTestMatrix(), cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// flipFirstValue flips one mid-mantissa bit of the first stored value —
// a position every scheme protects, in an entry that is never padding.
func flipFirstValue(m core.ProtectedMatrix) {
	v := m.RawVals()
	v[0] = math.Float64frombits(math.Float64bits(v[0]) ^ 1<<40)
}

// TestConformanceApplyBatchParity asserts the one-kernel invariant for
// every format x scheme x shards combination and every read mode: one
// batched pass over the matrix is bit-identical to k independent
// single-column products, serial and parallel. The reference is Apply
// in the verifying modes and ApplyUnverified under ModeUnverified,
// where a value flip is planted first: the batch must stream it
// undecoded exactly like ApplyUnverified and leave the counters
// untouched.
func TestConformanceApplyBatchParity(t *testing.T) {
	const k = 3
	modes := []core.ReadMode{core.ModeExclusive, core.ModeShared, core.ModeUnverified}
	forEachPair(t, func(t *testing.T, f op.Format, s core.Scheme) {
		cols := batchRefColumns(shardTestMatrix().Cols32(), k)
		for _, shards := range []int{1, 2} {
			for _, mode := range modes {
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("shards=%d mode=%v workers=%d", shards, mode, workers)
					m := batchOperator(t, f, s, shards)
					var c core.Counters
					m.SetCounters(&c)
					m.SetReadMode(mode)
					single := m.Apply
					if mode == core.ModeUnverified {
						single = m.ApplyUnverified
						flipFirstValue(m)
					}
					x := batchMultiVector(cols, core.SECDED64)
					x.SetCounters(&c)
					dst := core.NewMultiVector(m.Rows(), k, core.None)
					before := c.Snapshot()
					if err := m.ApplyBatch(dst, x, workers); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if mode == core.ModeUnverified && c.Snapshot() != before {
						t.Fatalf("%s: batch moved the counters: %+v -> %+v", label, before, c.Snapshot())
					}
					for j := 0; j < k; j++ {
						ref := core.NewVector(m.Rows(), core.None)
						if err := single(ref, x.Col(j), workers); err != nil {
							t.Fatal(err)
						}
						want := make([]float64, m.Rows())
						got := make([]float64, m.Rows())
						if err := ref.CopyTo(want); err != nil {
							t.Fatal(err)
						}
						if err := dst.Col(j).CopyTo(got); err != nil {
							t.Fatal(err)
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s col %d row %d: batch %x single %x", label, j, i,
									math.Float64bits(got[i]), math.Float64bits(want[i]))
							}
						}
					}
				}
			}
		}
	})
}

// TestConformanceApplyBatchFaultMidBatch corrupts one element codeword
// and asserts the batched kernel's verify-then-stream contract per
// DESIGN §12: in shared mode the corrective fallback produces the clean
// product in every column while leaving storage stale for the scrub; in
// exclusive mode the repair is committed. Correction counts match
// between the two modes, and SED detects in both.
func TestConformanceApplyBatchFaultMidBatch(t *testing.T) {
	const k = 3
	forEachPair(t, func(t *testing.T, f op.Format, s core.Scheme) {
		if s == core.None {
			t.Skip("baseline has no protection")
		}
		plain := shardTestMatrix()
		cols := batchRefColumns(plain.Cols32(), k)
		// Clean per-column references from the unprotected CSR product.
		want := make([][]float64, k)
		for j := range want {
			want[j] = make([]float64, plain.Rows())
			plain.SpMV(want[j], cols[j])
		}
		counts := map[bool]uint64{}
		for _, shared := range []bool{false, true} {
			m := batchOperator(t, f, s, 1)
			var c core.Counters
			m.SetCounters(&c)
			if shared {
				m.SetReadMode(core.ModeShared)
			}
			flipFirstValue(m)
			x := batchMultiVector(cols, core.None)
			dst := core.NewMultiVector(m.Rows(), k, core.None)
			applyErr := m.ApplyBatch(dst, x, 1)

			if s == core.SED {
				var fe *core.FaultError
				if applyErr == nil || !errors.As(applyErr, &fe) {
					t.Fatalf("shared=%v: SED did not detect: %v", shared, applyErr)
				}
				if c.Detected() == 0 {
					t.Fatalf("shared=%v: detection not counted", shared)
				}
				counts[shared] = c.Detected()
				continue
			}
			if applyErr != nil {
				t.Fatalf("shared=%v: correctable fault surfaced as error: %v", shared, applyErr)
			}
			if c.Corrected() == 0 {
				t.Fatalf("shared=%v: no correction recorded", shared)
			}
			counts[shared] = c.Corrected()
			for j := 0; j < k; j++ {
				got := make([]float64, m.Rows())
				if err := dst.Col(j).CopyTo(got); err != nil {
					t.Fatal(err)
				}
				for i := range want[j] {
					if got[i] != want[j][i] {
						t.Fatalf("shared=%v col %d row %d: diverged after correction", shared, j, i)
					}
				}
			}
			// Commit discipline: exclusive mode repaired storage, shared
			// mode left the raw fault for the scrub.
			corrected, err := m.Scrub()
			if err != nil {
				t.Fatalf("shared=%v: scrub: %v", shared, err)
			}
			wantLate := 0
			if shared {
				wantLate = 1
			}
			if corrected != wantLate {
				t.Fatalf("shared=%v: scrub corrected %d, want %d", shared, corrected, wantLate)
			}
		}
		if counts[false] != counts[true] {
			t.Fatalf("counter parity violated: exclusive %d, shared %d", counts[false], counts[true])
		}
	})
}
