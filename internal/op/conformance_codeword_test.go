package op

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"abft/internal/core"
)

// flipPos is one bit of an element codeword as stored: bit 0-63 of the
// value at entry k, or bit 64-95, which is bit (bit-64) of its column
// index.
type flipPos struct{ k, bit int }

func flipAt(m core.ProtectedMatrix, p flipPos) {
	if p.bit < 64 {
		v := m.RawVals()
		v[p.k] = math.Float64frombits(math.Float64bits(v[p.k]) ^ 1<<uint(p.bit))
		return
	}
	m.RawCols()[p.k] ^= 1 << uint(p.bit-64)
}

// codewordPositions lists every value and column-index bit of the
// element codeword at base, base+stride, ... (span entries), check bits
// included. Under CRC32C the CSR and SELL-C-sigma checksum occupies the
// top column byte of a group's first four entries only; the top byte of
// the later entries is reserved — masked on every read and covered by
// no codeword — and is returned separately.
func codewordPositions(f Format, s core.Scheme, base, span, stride int) (covered, reserved []flipPos) {
	for j := 0; j < span; j++ {
		k := base + j*stride
		for bit := 0; bit < 96; bit++ {
			p := flipPos{k, bit}
			if s == core.CRC32C && f != COO && j >= 4 && bit >= 88 {
				reserved = append(reserved, p)
				continue
			}
			covered = append(covered, p)
		}
	}
	return covered, reserved
}

// TestConformanceElementCodewordExhaustive flips, one at a time, every
// value and column-index bit of one element codeword (picked through
// core.ElemSpanner) for every format x protecting scheme x {exclusive,
// shared}. SED must detect each flip; SECDED64, SECDED128 and CRC32C
// must correct it with Apply bit-exact against the unprotected
// reference, repairing storage in exclusive mode and leaving the fault
// for Scrub in shared mode. Reserved bits outside every codeword must
// be masked: bit-exact, nothing counted. A sample of two-flip pairs
// inside the codeword is then detected under SECDED and corrected under
// CRC32C.
func TestConformanceElementCodewordExhaustive(t *testing.T) {
	for _, f := range Formats {
		for _, s := range []core.Scheme{core.SED, core.SECDED64, core.SECDED128, core.CRC32C} {
			for _, mode := range []core.ReadMode{core.ModeExclusive, core.ModeShared} {
				t.Run(fmt.Sprintf("%v_%v_%v", f, s, mode), func(t *testing.T) {
					exhaustCodeword(t, f, s, mode)
				})
			}
		}
	}
}

func exhaustCodeword(t *testing.T, f Format, s core.Scheme, mode core.ReadMode) {
	plain := testMatrix(t)
	xs := refVector(plain.Cols32())
	want := make([]float64, plain.Rows())
	plain.SpMV(want, xs)

	m, err := New(f, plain, Config{Scheme: s})
	if err != nil {
		t.Fatal(err)
	}
	m.SetReadMode(mode)
	var c core.Counters
	m.SetCounters(&c)
	sp, ok := m.(core.ElemSpanner)
	if !ok {
		t.Fatalf("%v does not expose its codeword geometry", f)
	}
	rng := rand.New(rand.NewSource(int64(13*int(f) + int(s))))
	base, span, stride := sp.ElemCodewordSpan(rng.Intn)
	covered, reserved := codewordPositions(f, s, base, span, stride)
	cleanVals, cleanCols := slices.Clone(m.RawVals()), slices.Clone(m.RawCols())

	x := core.VectorFromSlice(xs, core.None)
	dst := core.NewVector(m.Rows(), core.None)
	got := make([]float64, m.Rows())
	apply := func() error {
		if err := m.Apply(dst, x, 1); err != nil {
			return err
		}
		if err := dst.CopyTo(got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("row %d: got %v, want %v", i, got[i], want[i])
			}
		}
		return nil
	}
	clean := func() bool {
		return slices.Equal(m.RawCols(), cleanCols) &&
			slices.EqualFunc(m.RawVals(), cleanVals, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			})
	}
	restore := func() {
		copy(m.RawVals(), cleanVals)
		copy(m.RawCols(), cleanCols)
	}
	detected := func(err error) bool {
		var fe *core.FaultError
		return errors.As(err, &fe) && fe.Structure == core.StructElements && fe.Scheme == s
	}
	// corrects runs Apply over a storage fault the scheme must correct
	// and checks where the repair lands.
	corrects := func(what string) {
		t.Helper()
		before := c.Corrected()
		if err := apply(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := c.Corrected() - before; n != 1 {
			t.Fatalf("%s: Apply counted %d corrections, want 1", what, n)
		}
		if mode == core.ModeExclusive {
			if !clean() {
				t.Fatalf("%s: exclusive Apply left storage unrepaired", what)
			}
			return
		}
		if clean() {
			t.Fatalf("%s: shared Apply wrote its correction back", what)
		}
		if n, err := m.Scrub(); n != 1 || err != nil || !clean() {
			t.Fatalf("%s: Scrub = %d, %v (storage clean %v), want 1 correction", what, n, err, clean())
		}
	}

	for _, p := range covered {
		what := fmt.Sprintf("flip %+v", p)
		flipAt(m, p)
		if s == core.SED {
			if err := m.Apply(dst, x, 1); !detected(err) {
				t.Fatalf("%s: Apply err %v, want an element fault", what, err)
			}
			restore()
			continue
		}
		corrects(what)
	}
	for _, p := range reserved {
		before := c.Snapshot()
		flipAt(m, p)
		if err := apply(); err != nil {
			t.Fatalf("reserved flip %+v: %v", p, err)
		}
		if after := c.Snapshot(); after.Corrected != before.Corrected || after.Detected != before.Detected {
			t.Fatalf("reserved flip %+v counted: %v -> %v", p, before, after)
		}
		restore()
	}
	if s == core.SED {
		return // parity cannot see an even number of flips
	}
	for range 64 {
		i := rng.Intn(len(covered))
		j := (i + 1 + rng.Intn(len(covered)-1)) % len(covered)
		what := fmt.Sprintf("flips %+v and %+v", covered[i], covered[j])
		flipAt(m, covered[i])
		flipAt(m, covered[j])
		if s == core.CRC32C {
			corrects(what)
			continue
		}
		if err := m.Apply(dst, x, 1); !detected(err) {
			t.Fatalf("%s: Apply err %v, want an element fault", what, err)
		}
		restore()
	}
}
