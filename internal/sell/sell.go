// Package sell implements ABFT protection for sparse matrices in the
// SELL-C-sigma (sliced ELLPACK) format of Kreutzer et al., the
// SIMD-friendly layout used by GPU and wide-vector SpMV kernels: rows are
// sorted by descending length inside windows of sigma rows, grouped into
// slices of C consecutive stored rows, and each slice is padded to its
// widest row and laid out column-major, so all C lanes of a slice advance
// in lockstep.
//
// The element stream is the one CSR uses, core.Elements (paper Fig 1):
// an element is the 96-bit (value, column-index) codeword with the
// redundancy in the unused top bits of the 32-bit column index, costing
// zero extra storage. Only the geometry is SELL's own: SECDED128 pairs
// two storage-consecutive entries (slices hold a multiple of C=4
// entries, so pairs always align), and a CRC32C record group is one
// stored row — a lane, entries lo+l, lo+l+C, ... of its slice, whose
// width is padded to >= 4 under this scheme.
//
// The structural metadata — slice offsets, the row permutation and the
// per-row lengths — is trusted: it is small, rebuildable from the source
// matrix, and analogous to the loop bounds of a kernel rather than to the
// streamed data the paper's schemes target. SpMV range-checks every
// decoded column index against the matrix dimensions, so metadata-sized
// corruption of the element stream still cannot fault the process.
package sell

import (
	"fmt"
	"sort"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/ecc"
	"abft/internal/par"
)

// C is the slice height (stored rows per slice). It equals the vector
// codeword block of internal/core, so a slice's output rows always form
// whole protected-vector blocks.
const C = 4

// DefaultSigma is the sorting-window size used when Options.Sigma is zero.
const DefaultSigma = 32

// Options configures SELL-C-sigma protection.
type Options struct {
	// Scheme protects the (value, column-index) element stream.
	Scheme core.Scheme
	// Backend selects the CRC32C implementation.
	Backend ecc.Backend
	// Sigma is the row-sorting window in rows; it is rounded up to a
	// multiple of C and defaults to DefaultSigma. Larger windows reduce
	// padding at the cost of a wider output scatter.
	Sigma int
}

// Matrix is a sparse matrix in SELL-C-sigma format with embedded ECC.
type Matrix struct {
	// Elements is the protected element stream, column-major per slice.
	core.Elements
	rows, cols int
	nnz        int // logical entries (excluding slice padding)
	sigma      int

	// Trusted structural metadata (see the package comment).
	slicePtr []uint32 // entry offset of each slice, len slices+1
	perm     []uint32 // stored row -> original row; padRow for dummy lanes
	rowLen   []uint32 // real entries of each stored row
	maxWidth int      // widest slice, sizes CRC scratch buffers

	// mode is the read discipline Apply runs under; see SetReadMode.
	mode core.ReadMode
}

// padRow marks a dummy lane added to fill the last slice.
const padRow = ^uint32(0)

// NewMatrix builds a protected SELL-C-sigma copy of src.
func NewMatrix(src *csr.Matrix, opt Options) (*Matrix, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	s := opt.Scheme
	if src.Cols32() > s.MaxCols() {
		return nil, fmt.Errorf("sell: %d columns exceed %s limit %d", src.Cols32(), s, s.MaxCols())
	}
	sigma := opt.Sigma
	if sigma <= 0 {
		sigma = DefaultSigma
	}
	sigma = (sigma + C - 1) / C * C

	rows := src.Rows()
	padded := (rows + C - 1) / C * C
	m := &Matrix{
		rows:   rows,
		cols:   src.Cols32(),
		nnz:    src.NNZ(),
		sigma:  sigma,
		perm:   make([]uint32, padded),
		rowLen: make([]uint32, padded),
	}
	// Sort rows by descending length inside each sigma window; the stable
	// tie-break keeps the permutation deterministic.
	for sr := range m.perm {
		if sr < rows {
			m.perm[sr] = uint32(sr)
		} else {
			m.perm[sr] = padRow
		}
	}
	rlen := func(r uint32) int { return int(src.RowPtr[r+1] - src.RowPtr[r]) }
	for base := 0; base < rows; base += sigma {
		hi := base + sigma
		if hi > rows {
			hi = rows
		}
		win := m.perm[base:hi]
		sort.SliceStable(win, func(i, j int) bool { return rlen(win[i]) > rlen(win[j]) })
	}
	for sr, r := range m.perm {
		if r != padRow {
			m.rowLen[sr] = uint32(rlen(r))
		}
	}

	// Size the slices: each is padded to its widest row, and under CRC32C
	// to at least four entries so every lane can hold its checksum.
	slices := padded / C
	m.slicePtr = make([]uint32, slices+1)
	for sl := 0; sl < slices; sl++ {
		width := 0
		for l := 0; l < C; l++ {
			if n := int(m.rowLen[sl*C+l]); n > width {
				width = n
			}
		}
		if s == core.CRC32C && width < 4 {
			width = 4
		}
		if width > m.maxWidth {
			m.maxWidth = width
		}
		m.slicePtr[sl+1] = m.slicePtr[sl] + uint32(width*C)
	}
	total := int(m.slicePtr[slices])
	m.Elements = core.NewElements(s, opt.Backend, make([]float64, total), make([]uint32, total))
	vals, cols := m.RawVals(), m.RawCols()

	// Fill column-major per slice; padding entries are explicit zeros on
	// a clamped diagonal column so SpMV adds 0*x[c] and nothing changes.
	for sl := 0; sl < slices; sl++ {
		width := m.sliceWidth(sl)
		for l := 0; l < C; l++ {
			sr := sl*C + l
			r := m.perm[sr]
			pad := uint32(0)
			if r != padRow {
				pad = r
				if int(pad) >= m.cols {
					pad = uint32(m.cols - 1)
				}
			}
			for j := 0; j < width; j++ {
				k := m.entryIndex(sl, l, j)
				if r != padRow && j < int(m.rowLen[sr]) {
					e := src.RowPtr[r] + uint32(j)
					cols[k] = src.Cols[e]
					vals[k] = src.Vals[e]
				} else {
					cols[k] = pad
					vals[k] = 0
				}
			}
		}
	}
	m.encodeAll()
	return m, nil
}

// entryIndex returns the storage index of entry j of lane l in slice sl.
func (m *Matrix) entryIndex(sl, l, j int) int {
	return int(m.slicePtr[sl]) + j*C + l
}

// sliceWidth returns the padded entry count per lane of slice sl.
func (m *Matrix) sliceWidth(sl int) int {
	return int(m.slicePtr[sl+1]-m.slicePtr[sl]) / C
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of logical entries.
func (m *Matrix) NNZ() int { return m.nnz }

// Sigma returns the row-sorting window.
func (m *Matrix) Sigma() int { return m.sigma }

// Slices returns the number of C-row slices.
func (m *Matrix) Slices() int { return len(m.slicePtr) - 1 }

// StoredEntries returns the stored entry count including slice padding.
func (m *Matrix) StoredEntries() int { return len(m.RawVals()) }

// SliceRange returns the half-open storage range [lo, hi) of slice sl.
// Lane l of the slice occupies positions lo+l, lo+l+C, lo+l+2C, ...
func (m *Matrix) SliceRange(sl int) (lo, hi int) {
	return int(m.slicePtr[sl]), int(m.slicePtr[sl+1])
}

// SetReadMode selects the read discipline for Apply. ModeShared marks
// the matrix as applied concurrently from multiple goroutines: Apply
// stops committing corrections to storage (they are still counted and
// the checks still detect), leaving repair to Scrub, which the owner
// must serialize against Apply. Set before the matrix becomes visible
// to other goroutines.
func (m *Matrix) SetReadMode(mode core.ReadMode) { m.mode = mode }

// ReadMode returns the configured read discipline.
func (m *Matrix) ReadMode() core.ReadMode { return m.mode }

// ---------------------------------------------------------------------------
// Encoding and checking

// encodeAll encodes every element codeword; under CRC32C each lane is
// one record group.
func (m *Matrix) encodeAll() {
	m.EncodeEntries()
	if m.Scheme() != core.CRC32C {
		return
	}
	buf := make([]byte, m.maxWidth*12)
	for sl := 0; sl < m.Slices(); sl++ {
		lo, _ := m.SliceRange(sl)
		for l := 0; l < C; l++ {
			m.EncodeGroup(lo+l, C, m.sliceWidth(sl), buf)
		}
	}
}

// laneImage returns lane l's section of a CRC32C slice buffer (C lane
// images of 12*maxWidth bytes each).
func (m *Matrix) laneImage(buf []byte, l int) []byte {
	n := 12 * m.maxWidth
	return buf[l*n : (l+1)*n]
}

// checkSlice verifies every codeword of slice sl in one tight pass,
// repairing correctable errors when commit is true — the batch-verify
// half of the verify-then-stream protocol. It returns whether the slice
// is dirty (a correction was found but not committed, so storage still
// holds a raw fault and the caller must decode through applySliceLocal
// instead of streaming storage), the number of codeword checks
// performed, and the first error. Under CRC32C each lane's corrected
// image stays in its own section of buf, so a dirty slice decodes every
// lane without re-verifying.
func (m *Matrix) checkSlice(sl int, buf []byte, commit bool) (dirty bool, checks uint64, err error) {
	lo, hi := m.SliceRange(sl)
	if m.Scheme() != core.CRC32C {
		return m.CheckSpan(lo, hi, commit, nil)
	}
	for l := 0; l < C; l++ {
		corrected, e := m.CheckGroup(sl*C+l, lo+l, C, (hi-lo)/C, m.laneImage(buf, l), commit)
		if e != nil && err == nil {
			err = e
		}
		dirty = dirty || corrected && !commit
	}
	return dirty, C, err
}

// CheckAll verifies and repairs every codeword, returning the number of
// corrections and the first uncorrectable error.
func (m *Matrix) CheckAll() (corrected int, err error) {
	if m.Counters() == nil {
		// Attach a scratch accumulator so corrections are counted even
		// for untracked matrices.
		m.SetCounters(&core.Counters{})
		defer m.SetCounters(nil)
	}
	counters := m.Counters()
	before := counters.Corrected()
	var buf []byte
	if m.Scheme() == core.CRC32C {
		buf = make([]byte, C*m.maxWidth*12)
	}
	var checks uint64
	for sl := 0; sl < m.Slices(); sl++ {
		_, n, e := m.checkSlice(sl, buf, true)
		checks += n
		if e != nil && err == nil {
			err = e
		}
	}
	counters.AddChecks(checks)
	return int(counters.Corrected() - before), err
}

// Scrub verifies and repairs every codeword, satisfying
// core.ProtectedMatrix; it is CheckAll under the interface's name.
func (m *Matrix) Scrub() (corrected int, err error) { return m.CheckAll() }

// ElemCodewordSpan reports the positions of one randomly chosen element
// codeword, satisfying core.ElemSpanner: single entries under
// SED/SECDED64, storage-consecutive pairs under SECDED128, and a strided
// lane (entries base, base+C, ...) under CRC32C.
func (m *Matrix) ElemCodewordSpan(pick func(n int) int) (base, span, stride int) {
	switch m.Scheme() {
	case core.SECDED128:
		return pick(m.StoredEntries()/2) * 2, 2, 1
	case core.CRC32C:
		sl := pick(m.Slices())
		lo, hi := m.SliceRange(sl)
		if width := (hi - lo) / C; width > 0 {
			return lo + pick(C), width, C
		}
	}
	return pick(m.StoredEntries()), 1, 1
}

// ---------------------------------------------------------------------------
// Kernels

// SpMV computes dst = m * x serially; a convenience wrapper around Apply.
func (m *Matrix) SpMV(dst, x *core.Vector) error { return m.Apply(dst, x, 1) }

// Apply computes dst = m * x with full integrity checking under the
// stored read mode: it is the k=1 case of the one product kernel (see
// ApplyBatch).
func (m *Matrix) Apply(dst, x *core.Vector, workers int) error {
	return m.applyVec(dst, x, workers, m.mode)
}

// ApplyUnverified computes dst = m * x through the no-decode fast path
// regardless of the stored read mode: slices stream as masked payload
// with only column range checks applied — no codeword verification, no
// corrections, no commit, and the check counters stay untouched — so it
// can run concurrently with verified readers of the same shared
// storage. It is the inner-solve read path of selective reliability.
func (m *Matrix) ApplyUnverified(dst, x *core.Vector, workers int) error {
	return m.applyVec(dst, x, workers, core.ModeUnverified)
}

// ApplyBatch computes dst = m * x for every column of x in one pass over
// the slices under the stored read mode, satisfying core.BatchApplier.
// Each slice's codewords are checked exactly once per window sweep and
// then its lanes accumulate into k window-local accumulators, so the
// matrix-side check cost is paid per pass instead of per right-hand
// side. Per-column results are bit-identical to k independent
// single-column products: each lane's sum runs in the same entry order
// per column, and each column commits its own output blocks.
func (m *Matrix) ApplyBatch(dst, x *core.MultiVector, workers int) error {
	return m.apply(dst, x, workers, m.mode)
}

// applyVec runs the kernel over single-column views of dst and x.
func (m *Matrix) applyVec(dst, x *core.Vector, workers int, mode core.ReadMode) error {
	// Single-column wraps cannot fail.
	d, _ := core.WrapMultiVector(dst)
	xs, _ := core.WrapMultiVector(x)
	return m.apply(d, xs, workers, mode)
}

// apply is the product kernel: dst = m * x for every column under mode.
// Each slice's codewords are verified (and repaired) in storage order
// before its lanes accumulate (unless mode is ModeUnverified), decoded
// column indices are range-checked, and results are committed
// block-wise through a window-local accumulator — the sigma sort
// scatters a slice's outputs within its window, so the window is the
// smallest unit whose output blocks have a single owner.
//
// Workers above 1 split the sigma windows across goroutines. Codewords
// never cross a slice, slices never cross a window, and windows are
// vector-block aligned, so every codeword and every output block has
// exactly one owner: the parallel path is race-free and bit-identical to
// the serial one.
func (m *Matrix) apply(dst, x *core.MultiVector, workers int, mode core.ReadMode) error {
	if dst.Len() != m.rows || x.Len() != m.cols {
		return fmt.Errorf("sell: product dimension mismatch: dst %d, m %dx%d, x %d",
			dst.Len(), m.rows, m.cols, x.Len())
	}
	if dst.K() != x.K() {
		return fmt.Errorf("sell: product width mismatch: dst %d, x %d", dst.K(), x.K())
	}
	k := x.K()
	xs := make([]float64, k*m.cols)
	for j := 0; j < k; j++ {
		col, buf := x.Col(j), xs[j*m.cols:(j+1)*m.cols]
		var err error
		if mode.Verifies() {
			err = col.CopyTo(buf)
		} else {
			err = col.CopyToUnverified(buf)
		}
		if err != nil {
			return err
		}
	}
	windows := (m.rows + m.sigma - 1) / m.sigma
	return par.ForEach(windows, workers, 1, func(wlo, whi int) error {
		// One allocation per worker: the k window accumulators and the
		// k lane sums.
		acc := make([]float64, k*m.sigma+k)
		acc, sums := acc[:k*m.sigma], acc[k*m.sigma:]
		var buf []byte
		if m.Scheme() == core.CRC32C && mode.Verifies() {
			buf = make([]byte, C*m.maxWidth*12)
		}
		for w := wlo; w < whi; w++ {
			if err := m.applyWindow(dst, xs, acc, sums, buf, w, mode); err != nil {
				return err
			}
		}
		return nil
	})
}

// applyWindow multiplies the slices of sigma-window w against every
// column and commits the window's output rows per column: column c of
// xs starts at c*cols, of acc at c*sigma. The slice verify happens once
// regardless of the column count, and each lane streams once for all k
// columns, its k running sums held in sums. Under ModeUnverified the
// verify is skipped entirely and every slice streams through the clean
// path — masked payload plus bounds checks only.
func (m *Matrix) applyWindow(dst *core.MultiVector, xs, acc, sums []float64, buf []byte, w int, mode core.ReadMode) error {
	base := w * m.sigma
	top := min(base+m.sigma, m.rows)
	k := dst.K()
	clear(acc)
	scheme, mask := m.Scheme(), m.ColMask()
	vals, cols := m.RawVals(), m.RawCols()
	slo := base / C
	shi := (top + C - 1) / C
	var checks uint64
	defer func() { m.Counters().AddChecks(checks) }()
	for sl := slo; sl < shi; sl++ {
		if scheme != core.None && mode.Verifies() {
			dirty, n, err := m.checkSlice(sl, buf, mode.Commits())
			checks += n
			if err != nil {
				return err
			}
			if dirty {
				// Shared-mode slice whose verify found a correction it
				// could not commit: storage still holds the raw fault, so
				// take the corrective per-lane local decode for every
				// column instead of streaming storage. The per-column
				// decodes repeat the uncounted local re-decode.
				for c := 0; c < k; c++ {
					err := m.applySliceLocal(acc[c*m.sigma:(c+1)*m.sigma], xs[c*m.cols:(c+1)*m.cols], buf, sl, base)
					if err != nil {
						return err
					}
				}
				continue
			}
		}
		width := m.sliceWidth(sl)
		for l := 0; l < C; l++ {
			r := m.perm[sl*C+l]
			if r == padRow {
				continue
			}
			if k == 1 {
				// A single column keeps its running sum in a register.
				var sum float64
				for j := 0; j < width; j++ {
					e := m.entryIndex(sl, l, j)
					col := cols[e] & mask
					if scheme != core.None && col >= uint32(m.cols) {
						return m.boundsErr(e, col)
					}
					sum += vals[e] * xs[col]
				}
				acc[int(r)-base] = sum
				continue
			}
			clear(sums)
			for j := 0; j < width; j++ {
				e := m.entryIndex(sl, l, j)
				col := cols[e] & mask
				if scheme != core.None && col >= uint32(m.cols) {
					return m.boundsErr(e, col)
				}
				v := vals[e]
				for c := range sums {
					sums[c] += v * xs[c*m.cols+int(col)]
				}
			}
			for c, sum := range sums {
				acc[c*m.sigma+int(r)-base] = sum
			}
		}
	}
	var out [C]float64
	for c := 0; c < k; c++ {
		col := dst.Col(c)
		for blk := base / C; blk*C < top; blk++ {
			for i := 0; i < C; i++ {
				if idx := blk*C + i; idx < m.rows {
					out[i] = acc[c*m.sigma+idx-base]
				} else {
					out[i] = 0
				}
			}
			col.WriteBlock(blk, &out)
		}
	}
	return nil
}

// boundsErr counts and reports the out-of-range column index of element e.
func (m *Matrix) boundsErr(e int, col uint32) error {
	m.Counters().AddBounds(1)
	return &core.BoundsError{Structure: core.StructElements, Index: e,
		Value: col, Limit: uint32(m.cols)}
}

// applySliceLocal accumulates slice sl's lanes into acc with every
// entry decoded through a core.ElemDecoder — the corrective fallback of
// the verify-then-stream protocol for shared matrices: the slice verify
// found a correction it could not commit, so storage cannot be streamed
// and each entry is re-decoded with corrections applied to the local
// copy only (under CRC32C, served from the lane images checkSlice left
// in buf). The verify pass already accounted the checks and
// corrections, so this path deliberately counts nothing.
func (m *Matrix) applySliceLocal(acc, xbuf []float64, buf []byte, sl, base int) error {
	var dec core.ElemDecoder
	dec.Reset(&m.Elements)
	lo, _ := m.SliceRange(sl)
	width := m.sliceWidth(sl)
	for l := 0; l < C; l++ {
		r := m.perm[sl*C+l]
		if r == padRow {
			continue
		}
		if buf != nil {
			dec.Group(m.laneImage(buf, l), lo+l, C)
		}
		var sum float64
		for j := 0; j < width; j++ {
			k := m.entryIndex(sl, l, j)
			col, val, err := dec.At(k)
			if err != nil {
				return err
			}
			if col >= uint32(m.cols) {
				return m.boundsErr(k, col)
			}
			sum += val * xbuf[col]
		}
		acc[int(r)-base] = sum
	}
	return nil
}

// Diagonal extracts the main diagonal into dst (length >= Rows), fully
// verifying every codeword on the way.
func (m *Matrix) Diagonal(dst []float64) error {
	if len(dst) < m.rows {
		return fmt.Errorf("sell: Diagonal destination too short")
	}
	plain, err := m.ToCSR()
	if err != nil {
		return err
	}
	plain.Diagonal(dst)
	return nil
}

// ToCSR decodes and verifies the matrix back into CSR form. Slice padding
// entries are dropped; the logical entries (including any explicit zeros
// of the source) are reproduced exactly.
func (m *Matrix) ToCSR() (*csr.Matrix, error) {
	if _, err := m.CheckAll(); err != nil {
		return nil, err
	}
	mask, vals, cols := m.ColMask(), m.RawVals(), m.RawCols()
	entries := make([]csr.Entry, 0, m.nnz)
	for sl := 0; sl < m.Slices(); sl++ {
		for l := 0; l < C; l++ {
			sr := sl*C + l
			r := m.perm[sr]
			if r == padRow {
				continue
			}
			for j := 0; j < int(m.rowLen[sr]); j++ {
				k := m.entryIndex(sl, l, j)
				entries = append(entries, csr.Entry{
					Row: int(r),
					Col: int(cols[k] & mask),
					Val: vals[k],
				})
			}
		}
	}
	return csr.New(m.rows, m.cols, entries)
}
