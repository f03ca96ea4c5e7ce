package main

import (
	"time"

	"abft/internal/core"
	"abft/internal/solvers"
)

// tracer carries the recording context of one traced solve: the
// operation id and the span new layer calls hang under. Solvers call the
// operator and preconditioner from the solving goroutine only, so the
// fields need no lock.
type tracer struct {
	rec    *Recorder
	op     int
	parent int
	// apply is the open apply span; mark is the time its previous
	// phase ended (shard phase hooks split an apply into phases).
	apply int
	mark  time.Time
}

// phase records the shard phase that just passed its barrier as a child
// of the open apply span.
func (t *tracer) phase(name string) {
	now := time.Now()
	if t.apply != 0 {
		t.rec.Add(name, t.apply, t.op, t.mark, now)
	}
	t.mark = now
}

// timedOp times Apply around a solvers.MatrixOperator. It has no
// optional capabilities of its own: wrapOperator adds exactly those the
// wrapped matrix offers, because the solvers switch paths on them (a
// Dot method, for one, turns off fused kernels for a plain matrix).
type timedOp struct {
	mo solvers.MatrixOperator
	t  *tracer
}

func (o *timedOp) Rows() int                    { return o.mo.Rows() }
func (o *timedOp) Diagonal(dst []float64) error { return o.mo.Diagonal(dst) }

// Apply records an "apply" span under the current parent.
func (o *timedOp) Apply(dst, x *core.Vector) error {
	start := time.Now()
	id := o.t.rec.Add("apply", o.t.parent, o.t.op, start, start)
	o.t.apply, o.t.mark = id, start
	err := o.mo.Apply(dst, x)
	o.t.rec.End(id)
	o.t.apply = 0
	return err
}

// batchFwd and unverifiedFwd adapt the matrix-level capabilities to the
// operator-level interfaces, passing the worker count the way the
// solvers do when they unwrap a MatrixOperator themselves.
type batchFwd struct {
	m       core.BatchApplier
	workers int
}

func (b batchFwd) ApplyBatch(dst, x *core.MultiVector) error {
	return b.m.ApplyBatch(dst, x, b.workers)
}

type unverifiedFwd struct {
	m       core.UnverifiedApplier
	workers int
}

func (u unverifiedFwd) ApplyUnverified(dst, x *core.Vector) error {
	return u.m.ApplyUnverified(dst, x, u.workers)
}

// Capability bits, one per optional interface the solvers test for.
const (
	capDot = 1 << iota
	capBand
	capBatch
	capUnverified
)

// opCaps reports the optional capabilities the solvers find on op,
// mirroring their own lookups: through the matrix of a MatrixOperator
// (batching only while the stencil cache is on), on op itself otherwise.
func opCaps(op solvers.Operator) int {
	var target any = op
	mo, isMO := op.(solvers.MatrixOperator)
	if isMO {
		target = mo.M
	}
	caps := 0
	if _, ok := target.(solvers.DotOperator); ok {
		caps |= capDot
	}
	if _, ok := target.(solvers.BandedOperator); ok {
		caps |= capBand
	}
	if isMO {
		if _, ok := mo.M.(core.BatchApplier); ok && !mo.DisableCache {
			caps |= capBatch
		}
		if _, ok := mo.M.(core.UnverifiedApplier); ok {
			caps |= capUnverified
		}
	} else {
		if _, ok := op.(solvers.BatchOperator); ok {
			caps |= capBatch
		}
		if _, ok := op.(solvers.UnverifiedOperator); ok {
			caps |= capUnverified
		}
	}
	return caps
}

// wrapOperator returns a timed operator over mo that offers exactly the
// optional capabilities mo offers the solvers, forwarding each to the
// matrix untimed.
func wrapOperator(mo solvers.MatrixOperator, t *tracer) solvers.Operator {
	base := &timedOp{mo: mo, t: t}
	d, _ := mo.M.(solvers.DotOperator)
	b, _ := mo.M.(solvers.BandedOperator)
	var ba solvers.BatchOperator
	if m, ok := mo.M.(core.BatchApplier); ok {
		ba = batchFwd{m, mo.Workers}
	}
	var u solvers.UnverifiedOperator
	if m, ok := mo.M.(core.UnverifiedApplier); ok {
		u = unverifiedFwd{m, mo.Workers}
	}
	type (
		dot   = solvers.DotOperator
		band  = solvers.BandedOperator
		batch = solvers.BatchOperator
		unv   = solvers.UnverifiedOperator
	)
	switch opCaps(mo) {
	case 0:
		return base
	case capDot:
		return struct {
			*timedOp
			dot
		}{base, d}
	case capBand:
		return struct {
			*timedOp
			band
		}{base, b}
	case capDot | capBand:
		return struct {
			*timedOp
			dot
			band
		}{base, d, b}
	case capBatch:
		return struct {
			*timedOp
			batch
		}{base, ba}
	case capDot | capBatch:
		return struct {
			*timedOp
			dot
			batch
		}{base, d, ba}
	case capBand | capBatch:
		return struct {
			*timedOp
			band
			batch
		}{base, b, ba}
	case capDot | capBand | capBatch:
		return struct {
			*timedOp
			dot
			band
			batch
		}{base, d, b, ba}
	case capUnverified:
		return struct {
			*timedOp
			unv
		}{base, u}
	case capDot | capUnverified:
		return struct {
			*timedOp
			dot
			unv
		}{base, d, u}
	case capBand | capUnverified:
		return struct {
			*timedOp
			band
			unv
		}{base, b, u}
	case capDot | capBand | capUnverified:
		return struct {
			*timedOp
			dot
			band
			unv
		}{base, d, b, u}
	case capBatch | capUnverified:
		return struct {
			*timedOp
			batch
			unv
		}{base, ba, u}
	case capDot | capBatch | capUnverified:
		return struct {
			*timedOp
			dot
			batch
			unv
		}{base, d, ba, u}
	case capBand | capBatch | capUnverified:
		return struct {
			*timedOp
			band
			batch
			unv
		}{base, b, ba, u}
	default: // all four
		return struct {
			*timedOp
			dot
			band
			batch
			unv
		}{base, d, b, ba, u}
	}
}

// timedPre times a preconditioner's Apply. The solvers look for no
// optional capability on a preconditioner, so Apply is all it offers.
type timedPre struct {
	p solvers.Preconditioner
	t *tracer
}

func (p *timedPre) Apply(z, r *core.Vector) error {
	start := time.Now()
	err := p.p.Apply(z, r)
	p.t.rec.Add("precond", p.t.parent, p.t.op, start, time.Now())
	return err
}
