package core

import (
	"encoding/binary"
	"math"

	"abft/internal/ecc"
)

// Element codecs (DESIGN.md section 3): the codeword is val(64) | col(32)
// with the redundancy in the top bits of the column index.
var (
	// codecElem64 protects one element (64-bit value + 24-bit column):
	// check bits in the top byte of the column index.
	codecElem64 = ecc.MustSECDED(96, []int{88, 89, 90, 91, 92, 93, 94, 95})

	// codecElem128 protects two elements with 9 check bits split 5+4
	// across the two spare column-index bytes; the remaining 7 spare bits
	// are protected zero-padding.
	codecElem128 = ecc.MustSECDED(192, []int{88, 89, 90, 91, 92, 184, 185, 186, 187})
)

// Elements is the protected element stream shared by the CSR and
// SELL-C-sigma formats: parallel value and column-index arrays in which
// entry k is the codeword val(64) | col(32) of paper Fig 1, its
// redundancy embedded in the spare top bits of the column index. It owns
// the codecs, the column masks and the fault and correction accounting;
// a format embeds it by value and supplies only the geometry — how its
// kernels sweep the stream and which entries a CRC32C record group
// spans (a CSR row, a SELL-C-sigma lane).
//
//	SED        parity over value^column in column bit 31
//	SECDED64   8 check bits in the column top byte, one entry each
//	SECDED128  9 check bits across entries 2t and 2t+1 (pair t)
//	CRC32C     one checksum per record group, byte-wise in the top bytes
//	           of the group's first four entries
//
// Faults are reported as StructElements under the stream's scheme,
// indexed by entry (SED, SECDED64), pair (SECDED128) or group (CRC32C).
type Elements struct {
	scheme   Scheme
	backend  ecc.Backend
	vals     []float64
	colIdx   []uint32
	counters *Counters
}

// NewElements wraps vals and cols (equal lengths) as an element stream
// under scheme s. The slices are taken over, not copied; their codewords
// are not encoded until the owner calls EncodeEntries and, under
// CRC32C, EncodeGroup for each record group.
func NewElements(s Scheme, b ecc.Backend, vals []float64, cols []uint32) Elements {
	return Elements{scheme: s, backend: b, vals: vals, colIdx: cols}
}

// Scheme returns the element protection scheme.
func (e *Elements) Scheme() Scheme { return e.scheme }

// SetCounters attaches a statistics accumulator (may be shared or nil).
func (e *Elements) SetCounters(c *Counters) { e.counters = c }

// Counters returns the attached statistics accumulator, or nil.
func (e *Elements) Counters() *Counters { return e.counters }

// CounterSnapshot returns a copy of the attached counters.
func (e *Elements) CounterSnapshot() CounterSnapshot { return e.counters.Snapshot() }

// RawVals exposes stored values for fault injection.
func (e *Elements) RawVals() []float64 { return e.vals }

// RawCols exposes stored column indices (data + embedded ECC) for fault
// injection.
func (e *Elements) RawCols() []uint32 { return e.colIdx }

// ColMask returns the AND-mask isolating the data bits of a stored
// column index.
func (e *Elements) ColMask() uint32 {
	switch e.scheme {
	case None:
		return 0xFFFF_FFFF
	case SED:
		return sedColMask
	default:
		return eccColMask
	}
}

func (e *Elements) fault(idx int, detail string) error {
	e.counters.AddDetected(1)
	return &FaultError{Structure: StructElements, Scheme: e.scheme, Index: idx, Detail: detail}
}

// firstErr keeps the first of a sweep's errors.
func firstErr(err, e error) error {
	if err != nil {
		return err
	}
	return e
}

// word64 returns entry k's SECDED64 codeword.
func (e *Elements) word64(k int) ecc.Word4 {
	return ecc.Word4{math.Float64bits(e.vals[k]), uint64(e.colIdx[k])}
}

// wordPair returns pair t's SECDED128 codeword: entries 2t and 2t+1
// packed as val0 | col0 | val1 | col1.
func (e *Elements) wordPair(t int) ecc.Word4 {
	v0 := math.Float64bits(e.vals[2*t])
	v1 := math.Float64bits(e.vals[2*t+1])
	return ecc.Word4{v0, uint64(e.colIdx[2*t]) | v1<<32, v1>>32 | uint64(e.colIdx[2*t+1])<<32}
}

// EncodeEntries computes the redundancy of every per-entry (SED,
// SECDED64) or per-pair (SECDED128) codeword from the data bits stored.
// CRC32C groups are encoded by EncodeGroup.
func (e *Elements) EncodeEntries() {
	switch e.scheme {
	case SED:
		for k, c := range e.colIdx {
			c &= sedColMask
			e.colIdx[k] = c | uint32(ecc.Parity64(math.Float64bits(e.vals[k])^uint64(c)))<<31
		}
	case SECDED64:
		for k, c := range e.colIdx {
			cw := ecc.Word4{math.Float64bits(e.vals[k]), uint64(c & eccColMask)}
			codecElem64.Encode(&cw)
			e.colIdx[k] = uint32(cw[1])
		}
	case SECDED128:
		for t := 0; 2*t < len(e.colIdx); t++ {
			e.colIdx[2*t] &= eccColMask
			e.colIdx[2*t+1] &= eccColMask
			cw := e.wordPair(t)
			codecElem128.Encode(&cw)
			e.colIdx[2*t], e.colIdx[2*t+1] = uint32(cw[1]), uint32(cw[2]>>32)
		}
	}
}

// image serializes the n entries at base, base+stride, ... into msg as
// the 12-byte (value, masked column) records a CRC32C group covers, and
// returns the checksum stored in the group's first four entries.
func (e *Elements) image(base, stride, n int, msg []byte) (stored uint32) {
	for j, k := 0, base; j < n; j, k = j+1, k+stride {
		c := e.colIdx[k]
		binary.LittleEndian.PutUint64(msg[12*j:], math.Float64bits(e.vals[k]))
		binary.LittleEndian.PutUint32(msg[12*j+8:], c&eccColMask)
		if j < 4 {
			stored |= (c >> 24) << (8 * uint(j))
		}
	}
	return stored
}

// EncodeGroup computes the CRC32C of the record group of n entries at
// base, base+stride, ...; buf is scratch of at least 12*n bytes.
func (e *Elements) EncodeGroup(base, stride, n int, buf []byte) {
	msg := buf[:12*n]
	e.image(base, stride, n, msg)
	crc := ecc.Checksum(msg, e.backend)
	for j, k := 0, base; j < n; j, k = j+1, k+stride {
		c := e.colIdx[k] & eccColMask
		if j < 4 {
			c |= (crc >> (8 * uint(j)) & 0xFF) << 24
		}
		e.colIdx[k] = c
	}
}

// CheckSpan verifies every per-entry or per-pair codeword covering
// entries [lo,hi) in one tight pass — the batch-verify half of the
// verify-then-stream protocol — repairing single flips in storage when
// commit is true. It continues past faults so the full damage is
// counted, and returns the first. dirty reports a correction that was
// not committed: storage still holds the raw fault, so the caller must
// decode through an ElemDecoder instead of streaming storage. checks
// counts the codewords verified; the caller batches it into the
// counters. memo (optional) carries the last verified SECDED128 pair
// across consecutive spans, so a pair straddling two CSR rows is checked
// once; a straddling pair left dirty or faulty is not memoised. CRC32C
// groups are checked by CheckGroup.
func (e *Elements) CheckSpan(lo, hi int, commit bool, memo *int) (dirty bool, checks uint64, err error) {
	switch e.scheme {
	case SED:
		for k := lo; k < hi; k++ {
			if ecc.Parity64(math.Float64bits(e.vals[k])^uint64(e.colIdx[k])) != 0 {
				err = firstErr(err, e.fault(k, "parity mismatch"))
			}
		}
		return false, uint64(hi - lo), err
	case SECDED64:
		for k := lo; k < hi; k++ {
			cw := e.word64(k)
			switch res, _ := codecElem64.Check(&cw); res {
			case ecc.Corrected:
				if commit {
					e.vals[k] = math.Float64frombits(cw[0])
					e.colIdx[k] = uint32(cw[1])
				} else {
					dirty = true
				}
				e.counters.AddCorrected(1)
			case ecc.Detected:
				err = firstErr(err, e.fault(k, "secded64 double-bit error"))
			}
		}
		return dirty, uint64(hi - lo), err
	case SECDED128:
		if hi <= lo {
			return false, 0, nil
		}
		t0, last := lo/2, (hi-1)/2
		if memo != nil && t0 == *memo {
			t0++
		}
		lastClean := true
		for t := t0; t <= last; t++ {
			checks++
			cw := e.wordPair(t)
			switch res, _ := codecElem128.Check(&cw); res {
			case ecc.Corrected:
				if commit {
					k := 2 * t
					e.vals[k] = math.Float64frombits(cw[0])
					e.colIdx[k] = uint32(cw[1])
					e.vals[k+1] = math.Float64frombits(cw[1]>>32 | cw[2]<<32)
					e.colIdx[k+1] = uint32(cw[2] >> 32)
				} else {
					dirty = true
					lastClean = t != last
				}
				e.counters.AddCorrected(1)
			case ecc.Detected:
				err = firstErr(err, e.fault(t, "secded128 double-bit error"))
			}
		}
		if memo != nil && lastClean && err == nil {
			*memo = last
		}
	}
	return dirty, checks, err
}

// CheckGroup verifies the CRC32C record group g of n entries at base,
// base+stride, ... (a CSR row: stride 1, g the row; a SELL-C-sigma
// lane: stride C, g its stored row), repairing up to two flips in
// storage when commit is true. buf must hold at least 12*n bytes; on
// return buf[:12*n] always holds the corrected record image, which an
// ElemDecoder pointed at it (see ElemDecoder.Group) serves when the
// correction could not be committed. A group reaching past the stream
// means the geometry feeding it (CSR row pointers) is corrupted beyond
// repair; that is reported as a fault, not a crash. The first return
// reports whether a correction was found.
func (e *Elements) CheckGroup(g, base, stride, n int, buf []byte, commit bool) (bool, error) {
	if n < 0 || 12*n > len(buf) || (n > 0 && base+(n-1)*stride >= len(e.colIdx)) {
		return false, e.fault(g, "record group exceeds the element stream (corrupted row pointers)")
	}
	msg := buf[:12*n]
	stored := e.image(base, stride, n, msg)
	crc := ecc.Checksum(msg, e.backend)
	if crc == stored {
		return false, nil
	}
	flips, ok := ecc.CorrectCodeword(msg, stored, crc)
	if !ok {
		return false, e.fault(g, "crc32c group mismatch beyond correction depth")
	}
	for _, f := range flips {
		if f.InCRC {
			// Checksum-slot flip: the records in msg are already right,
			// only the stored redundancy needs repair.
			if commit {
				e.colIdx[base+f.Bit/8*stride] ^= 1 << uint(24+f.Bit%8)
			}
			continue
		}
		k, bit := base+f.Bit/96*stride, f.Bit%96
		switch {
		case bit >= 88:
			return false, e.fault(g, "crc flip located in reserved byte")
		case !commit:
		case bit < 64:
			e.vals[k] = math.Float64frombits(math.Float64bits(e.vals[k]) ^ 1<<uint(bit))
		default:
			e.colIdx[k] ^= 1 << uint(bit-64)
		}
		msg[f.Bit/8] ^= 1 << uint(f.Bit%8)
	}
	e.counters.AddCorrected(1)
	return true, nil
}

// ElemDecoder is the corrective fallback of the verify-then-stream
// protocol: when a batch verify reports a row or lane dirty, each entry
// is decoded into decoder-local state with the correction applied there,
// never touching shared storage — the element analogue of
// Vector.ReadBlockShared. The verify pass that flagged the span already
// accounted the checks and corrections, so the decoder counts nothing.
type ElemDecoder struct {
	e *Elements
	// CRC32C: the corrected record image of the group at base, stride.
	img          []byte
	base, stride int
	// SECDED128: the decoded pair held in pairVals/pairCols.
	pair     int
	pairVals [2]float64
	pairCols [2]uint32
}

// Reset binds the decoder to e and forgets any decoded state.
func (d *ElemDecoder) Reset(e *Elements) {
	*d = ElemDecoder{e: e, pair: -1}
}

// Group points the decoder at the corrected record image CheckGroup left
// in img for the group at base, base+stride, ...; At then serves that
// group's entries from it.
func (d *ElemDecoder) Group(img []byte, base, stride int) {
	d.img, d.base, d.stride = img, base, stride
}

// At returns the locally corrected (masked column, value) of entry k.
func (d *ElemDecoder) At(k int) (uint32, float64, error) {
	e := d.e
	switch e.scheme {
	case SECDED64:
		cw := e.word64(k)
		if res, _ := codecElem64.Check(&cw); res == ecc.Detected {
			return 0, 0, e.fault(k, "secded64 double-bit error")
		}
		return uint32(cw[1]) & eccColMask, math.Float64frombits(cw[0]), nil
	case SECDED128:
		if t := k / 2; t != d.pair {
			cw := e.wordPair(t)
			if res, _ := codecElem128.Check(&cw); res == ecc.Detected {
				return 0, 0, e.fault(t, "secded128 double-bit error")
			}
			d.pairVals = [2]float64{math.Float64frombits(cw[0]), math.Float64frombits(cw[1]>>32 | cw[2]<<32)}
			d.pairCols = [2]uint32{uint32(cw[1]) & eccColMask, uint32(cw[2]>>32) & eccColMask}
			d.pair = t
		}
		return d.pairCols[k%2], d.pairVals[k%2], nil
	case CRC32C:
		rec := d.img[12*((k-d.base)/d.stride):]
		return binary.LittleEndian.Uint32(rec[8:]) & eccColMask, math.Float64frombits(binary.LittleEndian.Uint64(rec)), nil
	}
	// None and SED never correct, so their spans are never dirty.
	return e.colIdx[k] & e.ColMask(), e.vals[k], nil
}
