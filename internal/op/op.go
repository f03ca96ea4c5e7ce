// Package op is the format registry of the protected-operator layer: it
// names the ABFT-protected sparse storage formats the repository
// implements — CSR (internal/core), coordinate (internal/coo) and
// SELL-C-sigma (internal/sell) — and constructs any of them behind the
// format-agnostic core.ProtectedMatrix interface. Solvers, fault
// campaigns, benchmarks and the command-line tools select a format by
// name and never see a concrete layout.
package op

import (
	"fmt"
	"strings"

	"abft/internal/coo"
	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/ecc"
	"abft/internal/sell"
)

// Format names a protected sparse storage format.
type Format uint8

const (
	// CSR is compressed sparse row, the paper's primary format.
	CSR Format = iota
	// COO is coordinate (triplet) format, the second format of the
	// paper's predecessor lineage.
	COO
	// SELLCS is SELL-C-sigma (sliced ELLPACK), the SIMD-friendly layout.
	SELLCS
)

// Formats lists every storage format in display order.
var Formats = []Format{CSR, COO, SELLCS}

func (f Format) String() string {
	switch f {
	case CSR:
		return "csr"
	case COO:
		return "coo"
	case SELLCS:
		return "sellcs"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// ParseFormat converts a format name ("csr", "coo", "sellcs") to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "csr", "":
		return CSR, nil
	case "coo":
		return COO, nil
	case "sellcs", "sell", "sell-c-sigma":
		return SELLCS, nil
	default:
		return CSR, fmt.Errorf("op: unknown format %q (choices: %s)", s, FormatNames())
	}
}

// FormatNames returns the registered format names as a comma-separated
// list, for error messages and command-line help.
func FormatNames() string {
	names := make([]string, len(Formats))
	for i, f := range Formats {
		names[i] = f.String()
	}
	return strings.Join(names, ", ")
}

// Config carries the protection options shared across formats plus the
// format-specific knobs; irrelevant fields are ignored by formats that do
// not have the corresponding structure.
type Config struct {
	// Scheme protects the element stream of every format.
	Scheme core.Scheme
	// RowPtrScheme protects the CSR row-pointer vector (CSR only; COO
	// and SELL-C-sigma row structure is covered by Scheme or is trusted
	// metadata — see the package comments of internal/coo and
	// internal/sell).
	RowPtrScheme core.Scheme
	// Backend selects the CRC32C implementation.
	Backend ecc.Backend
	// CheckInterval performs full integrity checks only on every n-th
	// sweep. CSR only: New rejects values above 1 for other formats
	// rather than silently checking every sweep.
	CheckInterval int
	// Sigma is the SELL-C-sigma sorting window (SELL only; zero uses
	// the format default).
	Sigma int
}

// Matrix is the full product contract every format in this repository
// and the sharded composite satisfy: the core.ProtectedMatrix plus its
// batched and unverified products, each format's one kernel under the
// stored mode, k columns and ModeUnverified. Code holding a Matrix
// calls those products directly; core.ProtectedMatrix keeps them
// optional for operators built elsewhere, which the solvers probe for.
type Matrix interface {
	core.ProtectedMatrix
	core.BatchApplier
	core.UnverifiedApplier
}

// New builds a protected matrix of the given format from an unprotected
// CSR source. The result is used exclusively through the Matrix
// interface.
func New(f Format, src *csr.Matrix, cfg Config) (Matrix, error) {
	if cfg.CheckInterval > 1 && f != CSR {
		// Fail loudly rather than silently checking every sweep: interval
		// measurements on a format that ignores the knob would be wrong.
		return nil, fmt.Errorf("op: check interval is not supported by format %v (CSR only)", f)
	}
	switch f {
	case CSR:
		return core.NewMatrix(src, core.MatrixOptions{
			ElemScheme:    cfg.Scheme,
			RowPtrScheme:  cfg.RowPtrScheme,
			Backend:       cfg.Backend,
			CheckInterval: cfg.CheckInterval,
		})
	case COO:
		return coo.NewMatrix(src, coo.Options{
			Scheme:  cfg.Scheme,
			Backend: cfg.Backend,
		})
	case SELLCS:
		return sell.NewMatrix(src, sell.Options{
			Scheme:  cfg.Scheme,
			Backend: cfg.Backend,
			Sigma:   cfg.Sigma,
		})
	default:
		return nil, fmt.Errorf("op: unknown format %v", f)
	}
}
