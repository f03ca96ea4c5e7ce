package shard

import (
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
)

// TestApplyAllocs pins the 2-shard single-column Apply's per-call
// allocations at the counts measured before Apply became the k=1 case
// of the batched pipeline: the workspace pool, the phase fan-outs and
// the bands' own products, and nothing per chunk or per halo run.
func TestApplyAllocs(t *testing.T) {
	bound := map[op.Format]float64{op.CSR: 13, op.COO: 19, op.SELLCS: 19}
	plain := csr.Laplacian2D(16, 16)
	for _, f := range op.Formats {
		o, err := New(plain, Options{Shards: 2, Format: f, VectorScheme: core.SECDED64,
			Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}})
		if err != nil {
			t.Fatal(err)
		}
		x := core.VectorFromSlice(make([]float64, plain.Cols32()), core.SECDED64)
		dst := core.NewVector(plain.Rows(), core.SECDED64)
		n := testing.AllocsPerRun(20, func() {
			if err := o.Apply(dst, x, 2); err != nil {
				t.Fatal(err)
			}
		})
		if n > bound[f] {
			t.Errorf("%v: Apply allocates %v per call, bound %v", f, n, bound[f])
		}
	}
}
