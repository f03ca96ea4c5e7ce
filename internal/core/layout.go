package core

import "abft/internal/ecc"

// Package-level SECDED codecs of the vector and row-pointer layouts
// (DESIGN.md section 2); the element codecs live with Elements. They are
// immutable and shared by all protected structures.
var (
	// codecVec64 protects one float64: check bits in mantissa bits 0..7.
	codecVec64 = ecc.MustSECDED(64, []int{0, 1, 2, 3, 4, 5, 6, 7})

	// codecVec128 protects two float64 values: 9 check bits in the five
	// least significant mantissa bits of the first double and the four of
	// the second; mantissa bit 4 of the second double is protected
	// zero-padding (all ten reserved bits are masked on use).
	codecVec128 = ecc.MustSECDED(128, []int{0, 1, 2, 3, 4, 64, 65, 66, 67})

	// codecRow64 protects two row-pointer entries (28 data bits each):
	// check bits in the top nibble of each entry.
	codecRow64 = ecc.MustSECDED(64, []int{28, 29, 30, 31, 60, 61, 62, 63})

	// codecRow128 protects four row-pointer entries with 9 check bits in
	// the top nibbles of the first two entries plus the lowest spare bit
	// of the third; the other spare nibble bits are protected zero-pad.
	codecRow128 = ecc.MustSECDED(128, []int{28, 29, 30, 31, 60, 61, 62, 63, 92})
)

const (
	// sedColMask covers the 31 usable column-index bits under SED.
	sedColMask = 0x7FFF_FFFF
	// eccColMask covers the 24 usable column-index bits under
	// SECDED/CRC32C element protection (CSR and SELL-C-sigma).
	eccColMask = 0x00FF_FFFF
	// rowPtrMask covers the 28 usable row-pointer bits under
	// SECDED/CRC32C row-pointer protection.
	rowPtrMask = 0x0FFF_FFFF
)
