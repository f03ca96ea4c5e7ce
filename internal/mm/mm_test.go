package mm

import (
	"bytes"
	"compress/gzip"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abft/internal/csr"
)

func randomTestMatrix(t *testing.T, rng *rand.Rand, rows, cols, n int) *csr.Matrix {
	t.Helper()
	entries := make([]csr.Entry, n)
	seen := map[[2]int]bool{}
	for i := range entries {
		for {
			r, c := rng.Intn(rows), rng.Intn(cols)
			if !seen[[2]int{r, c}] {
				seen[[2]int{r, c}] = true
				entries[i] = csr.Entry{Row: r, Col: c, Val: rng.NormFloat64()}
				break
			}
		}
	}
	m, err := csr.New(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func assertSameMatrix(t *testing.T, a, b *csr.Matrix) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols32() != b.Cols32() || a.NNZ() != b.NNZ() {
		t.Fatalf("dims differ: %dx%d/%d vs %dx%d/%d",
			a.Rows(), a.Cols32(), a.NNZ(), b.Rows(), b.Cols32(), b.NNZ())
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("rowptr[%d] differs", i)
		}
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] || math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			t.Fatalf("entry %d differs: (%d,%g) vs (%d,%g)",
				i, a.Cols[i], a.Vals[i], b.Cols[i], b.Vals[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := randomTestMatrix(t, rng, 13, 9, 40)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatrix(t, src, back)
}

func TestLaplacianRoundTrip(t *testing.T) {
	src := csr.Laplacian2D(6, 5)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatrix(t, src, back)
}

const symmetricDoc = `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 4
1 1 2.0
2 1 -1.0
3 2 -1.0
3 3 2.0
`

const patternDoc = `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`

// badDocs are documents Read must reject.
var badDocs = []string{
	"",
	"hello world",
	"%%MatrixMarket matrix array real general\n2 2 4\n",
	"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
	"%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
	"%%MatrixMarket matrix coordinate real general\nnot a size line\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", // short
	"%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1.0\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 y 1.0\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 z\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n", // out of range
}

func TestSymmetricExpansion(t *testing.T) {
	m, err := ReadString(symmetricDoc)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 6 { // two off-diagonal entries mirrored
		t.Fatalf("nnz %d want 6", m.NNZ())
	}
	if !m.IsSymmetric(0) {
		t.Fatal("expanded matrix not symmetric")
	}
}

func TestPattern(t *testing.T) {
	m, err := ReadString(patternDoc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Vals[0] != 1 || m.Vals[1] != 1 {
		t.Fatal("pattern entries should have value 1")
	}
}

func TestErrors(t *testing.T) {
	for i, in := range badDocs {
		if _, err := ReadString(in); err == nil {
			t.Errorf("case %d accepted:\n%s", i, in)
		}
	}
}

func TestReadWriteFile(t *testing.T) {
	dir := t.TempDir()
	src := csr.Laplacian2D(4, 4)
	path := filepath.Join(dir, "lap.mtx")
	if err := WriteFile(path, src); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatrix(t, src, back)

	if _, err := ReadFile(filepath.Join(dir, "missing.mtx")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadFileGzip(t *testing.T) {
	dir := t.TempDir()
	src := csr.Laplacian2D(5, 3)
	var plain bytes.Buffer
	if err := Write(&plain, src); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "lap.mtx.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if _, err := gz.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatrix(t, src, back)

	// A .gz suffix with non-gzip bytes must fail loudly, not parse.
	bad := filepath.Join(dir, "bad.mtx.gz")
	if err := os.WriteFile(bad, plain.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Fatal("plain text with .gz suffix accepted")
	}
}

// TestReadRejectsUntrustedSizes feeds size lines that used to drive
// allocations straight from the declared counts: a huge entry count
// was preallocated (out of memory), a negative one panicked in make.
// Each must be an ordinary error now, as must non-positive dimensions
// and a document without a size line.
func TestReadRejectsUntrustedSizes(t *testing.T) {
	const banner = "%%MatrixMarket matrix coordinate real general\n"
	for _, tc := range []struct{ name, doc string }{
		{"huge-nnz", banner + "2 2 100000000000\n1 1 1.0\n"},
		{"negative-nnz", banner + "2 2 -1\n1 1 1.0\n"},
		{"zero-rows", banner + "0 2 0\n"},
		{"negative-cols", banner + "2 -3 1\n1 1 1.0\n"},
		{"no-size-line", banner + "% only a comment\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadString(tc.doc); err == nil {
				t.Fatalf("accepted:\n%s", tc.doc)
			}
		})
	}
}

func TestSize(t *testing.T) {
	rows, cols, nnz, err := Size(strings.NewReader(symmetricDoc))
	if err != nil || rows != 3 || cols != 3 || nnz != 4 {
		t.Fatalf("Size = %d, %d, %d, %v; want 3, 3, 4, nil", rows, cols, nnz, err)
	}
	if _, _, _, err := Size(strings.NewReader("%%MatrixMarket matrix coordinate real general\n4 4 -2\n")); err == nil {
		t.Fatal("Size accepted a negative entry count")
	}
}

// fuzzMaxDim bounds the declared dimensions FuzzRead parses. Read sizes
// the row-pointer array by the declared row count (CSR needs it), so
// callers holding untrusted input bound the dimensions through Size
// first, as the solve service does; the harness does the same.
const fuzzMaxDim = 1 << 16

// FuzzRead checks that Read never panics and that whatever it accepts
// round-trips through Write and Read unchanged, bit for bit.
func FuzzRead(f *testing.F) {
	var lap bytes.Buffer
	if err := Write(&lap, csr.Laplacian2D(3, 2)); err != nil {
		f.Fatal(err)
	}
	for _, doc := range append([]string{symmetricDoc, patternDoc, lap.String()}, badDocs...) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		if rows, cols, _, err := Size(strings.NewReader(doc)); err == nil && (rows > fuzzMaxDim || cols > fuzzMaxDim) {
			t.Skip("declared dimensions above the harness bound")
		}
		m, err := ReadString(doc)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading the written matrix: %v\n%s", err, buf.String())
		}
		assertSameMatrix(t, m, back)
	})
}
