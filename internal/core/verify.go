package core

// rowVerifier is the per-sweep state of CSR row verification, the first
// half of the verify-then-stream protocol: the CRC32C row image, the
// SECDED128 straddle memo and the corrective decoder a dirty row falls
// back to. When a row verifies clean (or every correction was committed
// to storage) the caller streams its values and masked column indices
// straight from storage with no per-element decode; when it is dirty —
// a correction was found but could not be committed, so storage still
// holds the raw fault — the caller decodes it through dec instead.
type rowVerifier struct {
	m        *Matrix
	buf      []byte // CRC32C row image; nil when rows are not verified
	lastPair int    // SECDED128 memo, see Elements.CheckSpan
	dec      ElemDecoder
}

// init binds the verifier to m; verify allocates the CRC32C row image.
func (v *rowVerifier) init(m *Matrix, verify bool) {
	v.m = m
	if verify && m.scheme == CRC32C {
		v.buf = make([]byte, m.maxRow*12)
	}
	v.reset()
}

// reset forgets the memoised and decoded state, starting a fresh sweep.
func (v *rowVerifier) reset() {
	v.lastPair = -1
	v.dec.Reset(&v.m.Elements)
}

// row batch-verifies the element codewords of row r, entries [lo,hi),
// repairing storage when commit is true. checks counts the codeword
// verifications performed; the caller batches it into the counters.
func (v *rowVerifier) row(r, lo, hi int, commit bool) (dirty bool, checks uint64, err error) {
	m := v.m
	if m.scheme != CRC32C {
		return m.CheckSpan(lo, hi, commit, &v.lastPair)
	}
	corrected, err := m.CheckGroup(r, lo, 1, hi-lo, v.buf, commit)
	v.dec.Group(v.buf, lo, 1)
	return corrected && !commit, 1, err
}
