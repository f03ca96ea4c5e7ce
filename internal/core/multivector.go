package core

import (
	"fmt"

	"abft/internal/ecc"
)

// MultiVector is a column-blocked batch of k protected vectors sharing
// one length and scheme: the multi-RHS operand of the batched kernels.
// Each column is a full codeword-protected Vector, so every single-RHS
// invariant (mask-on-read, commit discipline, counter accounting) holds
// per column unchanged and batched results can be compared bit-exactly
// against k independent single-RHS runs.
//
// Columns may carry distinct counters (the service attributes per-job
// vector checks that way); the batch read primitives below account
// checks into each column's own counters, exactly as k separate
// ReadBlocksInto calls would.
type MultiVector struct {
	cols []*Vector
	n    int
	k    int
}

// NewMultiVector returns a zero-filled k-column protected multivector
// of per-column length n.
func NewMultiVector(n, k int, s Scheme) *MultiVector {
	if k <= 0 {
		panic("core: non-positive multivector width")
	}
	cols := make([]*Vector, k)
	for j := range cols {
		cols[j] = NewVector(n, s)
	}
	return &MultiVector{cols: cols, n: n, k: k}
}

// WrapMultiVector assembles a multivector over existing columns, which
// must agree in length and scheme. The columns are shared, not copied:
// writes through the multivector are visible to the originals, which is
// how the service gives each coalesced job its own counter-carrying
// column inside one batched solve. A single column wraps into the
// vector's own cached one-column view, so the k=1 product paths (every
// format's Apply) allocate nothing for it.
func WrapMultiVector(cols ...*Vector) (*MultiVector, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("core: WrapMultiVector needs at least one column")
	}
	if len(cols) == 1 {
		return cols[0].view(), nil
	}
	n, s := cols[0].Len(), cols[0].Scheme()
	for j, c := range cols {
		if c.Len() != n {
			return nil, fmt.Errorf("core: column %d length %d != %d", j, c.Len(), n)
		}
		if c.Scheme() != s {
			return nil, fmt.Errorf("core: column %d scheme %v != %v", j, c.Scheme(), s)
		}
	}
	// Keep a copy rather than the caller's slice: storing cols would make
	// every variadic argument escape, so each one-column wrap (every
	// format's Apply) would allocate its slice; TestApplyAllocs in
	// internal/coo, internal/sell and internal/shard pins that.
	return &MultiVector{cols: append([]*Vector(nil), cols...), n: n, k: len(cols)}, nil
}

// view returns v's single-column multivector, building it on first use.
func (v *Vector) view() *MultiVector {
	if mv := v.single.Load(); mv != nil {
		return mv
	}
	v.single.CompareAndSwap(nil, &MultiVector{cols: []*Vector{v}, n: v.n, k: 1})
	return v.single.Load()
}

// Len returns the per-column logical element count.
func (mv *MultiVector) Len() int { return mv.n }

// K returns the number of columns (the batch width).
func (mv *MultiVector) K() int { return mv.k }

// Scheme returns the shared protection scheme.
func (mv *MultiVector) Scheme() Scheme { return mv.cols[0].Scheme() }

// Blocks returns the per-column number of 4-element blocks.
func (mv *MultiVector) Blocks() int { return mv.cols[0].Blocks() }

// Col returns column j.
func (mv *MultiVector) Col(j int) *Vector { return mv.cols[j] }

// SetCounters attaches one accumulator to every column.
func (mv *MultiVector) SetCounters(c *Counters) {
	for _, col := range mv.cols {
		col.SetCounters(c)
	}
}

// SetCRCBackend selects the CRC32C implementation for every column.
func (mv *MultiVector) SetCRCBackend(b ecc.Backend) {
	for _, col := range mv.cols {
		col.SetCRCBackend(b)
	}
}

// ReadBlocksInto verifies blocks [b0,b1) of every column and stores the
// masked values column-major into dst: column j occupies
// dst[j*span : (j+1)*span] where span = (b1-b0)*4. Corrections are
// committed per column. This is the batched sweep primitive the sharded
// operator's scatter phase uses to pack one protected message carrying
// all k columns of a block range.
func (mv *MultiVector) ReadBlocksInto(b0, b1 int, dst []float64) error {
	return mv.readBlocks(b0, b1, dst, ModeExclusive)
}

// ReadBlocksSharedInto is ReadBlocksInto under the no-commit discipline
// of ReadBlockShared: corrections are used and counted but never
// written back, so concurrent readers never race.
func (mv *MultiVector) ReadBlocksSharedInto(b0, b1 int, dst []float64) error {
	return mv.readBlocks(b0, b1, dst, ModeShared)
}

func (mv *MultiVector) readBlocks(b0, b1 int, dst []float64, mode ReadMode) error {
	span := (b1 - b0) * vecBlock
	if len(dst) < mv.k*span {
		return fmt.Errorf("core: ReadBlocks destination too short: %d < %d", len(dst), mv.k*span)
	}
	for j, col := range mv.cols {
		if err := col.ReadBlocksModeInto(mode, b0, b1, dst[j*span:]); err != nil {
			return err
		}
	}
	return nil
}

// CheckAll scrubs every column, returning total corrections and the
// first uncorrectable error.
func (mv *MultiVector) CheckAll() (corrected int, err error) {
	for _, col := range mv.cols {
		c, e := col.CheckAll()
		corrected += c
		if e != nil && err == nil {
			err = e
		}
	}
	return corrected, err
}
