package coo

import (
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
)

// TestApplyAllocs pins the single-column Apply's per-call allocations
// at the counts measured before Apply became the k=1 case of the batched
// kernel: the decoded source, the accumulator and the range split (plus
// the CRC32C group image), and nothing per entry or per chunk.
func TestApplyAllocs(t *testing.T) {
	bound := map[core.Scheme]float64{
		core.None: 4, core.SED: 4, core.SECDED64: 4, core.SECDED128: 4, core.CRC32C: 5,
	}
	plain := csr.Laplacian2D(16, 16)
	for _, s := range core.Schemes {
		m, err := NewMatrix(plain, Options{Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		x := core.VectorFromSlice(make([]float64, plain.Cols32()), core.SECDED64)
		dst := core.NewVector(plain.Rows(), core.SECDED64)
		n := testing.AllocsPerRun(20, func() {
			if err := m.Apply(dst, x, 1); err != nil {
				t.Fatal(err)
			}
		})
		if n > bound[s] {
			t.Errorf("%v: Apply allocates %v per call, bound %v", s, n, bound[s])
		}
	}
}
