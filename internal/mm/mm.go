// Package mm reads and writes Matrix Market files, the interchange
// format of SuiteSparse and most sparse solver test collections. It is
// the ingestion layer of the solve service and the fault-injection
// command: general SPD operators from real collections, not only the
// five-point stencils the repository generates, flow through here into
// the unprotected CSR substrate and from there into any protected
// format.
//
// The reader is deliberately minimal: `%%MatrixMarket matrix coordinate
// real|integer|pattern general|symmetric` headers, 1-based indices,
// comment and blank lines anywhere after the header. Symmetric inputs
// are expanded to general storage (both triangles), which every solver
// and protected format in this repository expects.
package mm

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"abft/internal/csr"
)

// header is the banner and size line of a MatrixMarket document.
type header struct {
	field           string
	symmetric       bool
	rows, cols, nnz int
}

// newScanner returns the line scanner both readers use.
func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return sc
}

// readHeader parses the banner and the size line, skipping comments.
// The declared sizes are untrusted: dimensions must be positive and the
// entry count non-negative, and nothing is allocated from them here.
func readHeader(sc *bufio.Scanner) (header, error) {
	var h header
	if !sc.Scan() {
		return h, fmt.Errorf("mm: empty MatrixMarket input")
	}
	banner := strings.Fields(strings.ToLower(sc.Text()))
	if len(banner) < 4 || banner[0] != "%%matrixmarket" || banner[1] != "matrix" {
		return h, fmt.Errorf("mm: not a MatrixMarket file: %q", sc.Text())
	}
	if banner[2] != "coordinate" {
		return h, fmt.Errorf("mm: only coordinate format supported, got %q", banner[2])
	}
	h.field = banner[3]
	if len(banner) > 4 {
		switch banner[4] {
		case "general":
		case "symmetric":
			h.symmetric = true
		default:
			return h, fmt.Errorf("mm: unsupported symmetry %q", banner[4])
		}
	}
	switch h.field {
	case "real", "integer", "pattern":
	default:
		return h, fmt.Errorf("mm: unsupported field type %q", h.field)
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &h.rows, &h.cols, &h.nnz); err != nil {
			return h, fmt.Errorf("mm: bad size line %q: %w", line, err)
		}
		if h.rows < 1 || h.cols < 1 || h.nnz < 0 {
			return h, fmt.Errorf("mm: invalid size line %q: need rows, cols >= 1 and entries >= 0", line)
		}
		return h, nil
	}
	if err := sc.Err(); err != nil {
		return h, err
	}
	return h, fmt.Errorf("mm: missing size line")
}

// Size parses only the banner and size line of a MatrixMarket stream
// and returns the declared dimensions and entry count, so a caller
// holding untrusted input can bound them before Read allocates the
// row-pointer array for the declared row count.
func Size(r io.Reader) (rows, cols, nnz int, err error) {
	h, err := readHeader(newScanner(r))
	return h.rows, h.cols, h.nnz, err
}

// Read parses a MatrixMarket coordinate stream into an unprotected CSR
// matrix. Real and integer fields are accepted; pattern entries get
// value 1. Symmetric matrices are expanded to general storage. Storage
// grows with the entries actually present, never with the declared
// count; the row-pointer array is sized by the declared row count (see
// Size).
func Read(r io.Reader) (*csr.Matrix, error) {
	sc := newScanner(r)
	h, err := readHeader(sc)
	if err != nil {
		return nil, err
	}
	var entries []csr.Entry
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("mm: bad entry line %q", line)
		}
		row, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("mm: bad row in %q: %w", line, err)
		}
		col, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("mm: bad col in %q: %w", line, err)
		}
		val := 1.0
		if h.field != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("mm: missing value in %q", line)
			}
			val, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mm: bad value in %q: %w", line, err)
			}
		}
		entries = append(entries, csr.Entry{Row: row - 1, Col: col - 1, Val: val})
		if h.symmetric && row != col {
			entries = append(entries, csr.Entry{Row: col - 1, Col: row - 1, Val: val})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) < h.nnz {
		return nil, fmt.Errorf("mm: expected %d entries, found %d", h.nnz, len(entries))
	}
	return csr.New(h.rows, h.cols, entries)
}

// ReadString parses a MatrixMarket document held in memory, the form
// solve requests carry it in.
func ReadString(s string) (*csr.Matrix, error) {
	return Read(strings.NewReader(s))
}

// ReadFile reads a MatrixMarket file from disk; a ".gz" suffix selects
// transparent gzip decompression (SuiteSparse distributes matrices
// compressed).
func ReadFile(path string) (*csr.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("mm: %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	m, err := Read(r)
	if err != nil {
		return nil, fmt.Errorf("mm: %s: %w", path, err)
	}
	return m, nil
}

// Write serialises the matrix in MatrixMarket coordinate format (real,
// general), with enough precision to round-trip float64 exactly.
func Write(w io.Writer, m *csr.Matrix) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows(), m.Cols32(), m.NNZ()); err != nil {
		return err
	}
	for r := 0; r < m.Rows(); r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			// MatrixMarket indices are 1-based.
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", r+1, m.Cols[k]+1, m.Vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes the matrix to path in MatrixMarket format.
func WriteFile(path string, m *csr.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
