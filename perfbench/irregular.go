package main

import (
	"fmt"
	"math/rand"
	"time"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// irrN is the order of the irregular SPD matrix: about 0.92 M nonzeros
// and 15 MB of protected state, with no geometric structure for the
// stencil cache to exploit.
const irrN = 131072

// irrRHS is the number of distinct seeded right-hand sides a run cycles
// through; each repeat must reproduce the first solve's counts and bits.
const irrRHS = 4

// irrSystem is one protected (or raw) build of the irregular system.
type irrSystem struct {
	op      *shard.Operator
	pre     precond.Preconditioner
	cnt     *core.Counters
	vectors core.Scheme
}

// buildIrregular shards plain into 2 SELL-C-sigma bands with elem
// protecting the elements and the block-Jacobi state, and vectors the
// halos and solver vectors.
func buildIrregular(plain *csr.Matrix, elem, vectors core.Scheme) (*irrSystem, error) {
	sys := &irrSystem{cnt: &core.Counters{}, vectors: vectors}
	var err error
	sys.op, err = shard.New(plain, shard.Options{
		Shards: 2, Format: op.SELLCS, Config: op.Config{Scheme: elem}, VectorScheme: vectors,
	})
	if err != nil {
		return nil, err
	}
	sys.op.SetCounters(sys.cnt)
	sys.pre, err = precond.For(precond.BlockJacobi, sys.op, plain, precond.Options{Scheme: elem, Workers: 2})
	if err != nil {
		return nil, err
	}
	sys.pre.SetCounters(sys.cnt)
	return sys, nil
}

// irrSolve is one solve's outcome.
type irrSolve struct {
	secs        float64
	iterations  int
	checks      uint64
	dispatches  uint64
	checkpoints int
	ckptSecs    float64
	x           []float64
}

// solve runs PCG with rollback recovery at its default cadence on 2
// workers from a zero guess. With t set, the operator and
// preconditioner run behind timed wrappers and checkpoints are
// observed through Options.Progress.
func (s *irrSystem) solve(b []float64, t *tracer) (irrSolve, error) {
	n := len(b)
	bv := core.VectorFromSlice(b, s.vectors)
	bv.SetCounters(s.cnt)
	x := core.NewVector(n, s.vectors)
	x.SetCounters(s.cnt)
	var out irrSolve
	mo := solvers.MatrixOperator{M: s.op, Workers: 2}
	var a solvers.Operator = mo
	opt := solvers.Options{
		Tol: 1e-10, RelativeTol: true, Workers: 2, Preconditioner: s.pre,
		Recovery: solvers.Recovery{Policy: solvers.RecoveryRollback},
	}
	if t != nil {
		a = wrapOperator(mo, t)
		opt.Preconditioner = &timedPre{p: s.pre, t: t}
		opt.Progress = func(e solvers.ProgressEvent) {
			if e.Kind == solvers.ProgressCheckpoint {
				out.checkpoints++
				out.ckptSecs += e.Duration.Seconds()
			}
		}
		s.op.SetPhaseHook(func(p shard.Phase) { t.phase(p.String()) })
		defer s.op.SetPhaseHook(nil)
	}
	before := s.cnt.Snapshot()
	d0 := dispatches()
	start := time.Now()
	res, err := solvers.Solve(solvers.KindPCG, a, x, bv, opt)
	out.secs = time.Since(start).Seconds()
	if err != nil {
		return out, err
	}
	if !res.Converged {
		return out, fmt.Errorf("no convergence in %d iterations (residual %g)", res.Iterations, res.ResidualNorm)
	}
	out.dispatches = dispatches() - d0
	out.iterations = res.Iterations
	out.x = make([]float64, n)
	if err := x.CopyTo(out.x); err != nil {
		return out, err
	}
	out.checks = s.cnt.Snapshot().Checks - before.Checks
	return out, nil
}

// irrRef is what the first solve of a right-hand side recorded.
type irrRef struct {
	iterations int
	checks     uint64
	hash       uint64
}

func runIrregular(c *runCtx) (*report, error) {
	rep := newReport()
	genStart := time.Now()
	plain := csr.IrregularSPD(irrN)
	rep.meta["matrix_gen_s"] = time.Since(genStart).Seconds()

	var sys *irrSystem
	heap0 := heapMB()
	setup, err := medianSetup(func() error {
		var err error
		sys, err = buildIrregular(plain, core.CRC32C, core.SECDED64)
		return err
	}, func() { sys = nil })
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	rep.e2e["resident_mb"] = heapMB() - heap0
	raw, err := buildIrregular(plain, core.None, core.None)
	if err != nil {
		return nil, err
	}
	// Elements and columns, SELL padding aside; block-Jacobi state of
	// about one row's worth per row; 8 solver and checkpoint vectors.
	ws := plain.NNZ()*12 + irrN*8 + 8*irrN*8
	rep.meta["sizes"] = map[string]int{"rows": irrN, "nnz": plain.NNZ(), "shards": sys.op.Shards(), "working_set_bytes": ws}

	rhs := irrRHSSet(c.seed)
	if _, err := sys.solve(rhs[0], nil); err != nil {
		return nil, fmt.Errorf("protected warm-up solve: %w", err)
	}
	if _, err := raw.solve(rhs[0], nil); err != nil {
		return nil, fmt.Errorf("raw warm-up solve: %w", err)
	}

	refs := make([]*irrRef, irrRHS)
	rawRefs := make([]*irrRef, irrRHS)
	var prot, rawT, traced, untracedT []float64
	var iters, checks, disp, diffs []float64
	var applyShare, preShare, prePerIt, engineSelf, ckpts, ckptSecs []float64
	var scatter, exchange, local []float64
	hasRecord := false
	deadline := time.Now().Add(c.seconds)
	for opID := 1; time.Now().Before(deadline); opID++ {
		rep.attempted++
		k := (opID - 1) % irrRHS
		p, err := sys.solve(rhs[k], nil)
		if err != nil {
			rep.fail("op %d: protected solve: %v", opID, err)
			continue
		}
		r, err := raw.solve(rhs[k], nil)
		if err != nil {
			rep.fail("op %d: raw solve: %v", opID, err)
			continue
		}
		if !matchRef(&refs[k], p) || !matchRef(&rawRefs[k], r) {
			rep.fail("op %d: solve of rhs %d drifted from its first solve: %d iterations, %d checks",
				opID, k, p.iterations, p.checks)
			continue
		}
		if hasRecord, err = checkRecorded("irregular-pcg", counts{p.iterations, p.checks, r.iterations}); err != nil {
			rep.fail("op %d: %v", opID, err)
			continue
		}
		diff, err := checkTwin(p.x, r.x, p.iterations, r.iterations)
		diffs = append(diffs, diff)
		if err != nil {
			rep.fail("op %d: %v", opID, err)
			continue
		}
		prot = append(prot, p.secs)
		rawT = append(rawT, r.secs)
		iters = append(iters, float64(p.iterations))
		checks = append(checks, float64(p.checks))
		disp = append(disp, float64(p.dispatches)/float64(p.iterations))
		if c.rec == nil {
			continue
		}
		start := time.Now()
		solveID := c.rec.Add("solve", 0, opID, start, start)
		t := &tracer{rec: c.rec, op: opID, parent: solveID}
		tp, err := sys.solve(rhs[k], t)
		c.rec.End(solveID)
		if err != nil {
			rep.fail("op %d: traced solve: %v", opID, err)
			continue
		}
		if tp.iterations != p.iterations || tp.checks != p.checks || bitsHash(tp.x) != bitsHash(p.x) {
			rep.fail("op %d: traced solve differs: %d iterations, %d checks (untraced %d, %d)",
				opID, tp.iterations, tp.checks, p.iterations, p.checks)
			continue
		}
		spans := c.rec.Spans()
		var solve, apply, pre float64
		var applies int
		phases := map[string]float64{}
		applyIDs := map[int]bool{}
		for _, s := range spans {
			if s.Op != opID {
				continue
			}
			switch {
			case s.ID == solveID:
				solve = s.Dur().Seconds()
			case s.Parent == solveID && s.Name == "apply":
				apply += s.Dur().Seconds()
				applies++
				applyIDs[s.ID] = true
			case s.Parent == solveID && s.Name == "precond":
				pre += s.Dur().Seconds()
			}
		}
		for _, s := range spans {
			if applyIDs[s.Parent] {
				phases[s.Name] += s.Dur().Seconds()
			}
		}
		traced = append(traced, tp.secs)
		untracedT = append(untracedT, p.secs)
		applyShare = append(applyShare, apply/solve)
		preShare = append(preShare, pre/solve)
		prePerIt = append(prePerIt, pre/float64(tp.iterations))
		engineSelf = append(engineSelf, selfTimes(spans)[solveID].Seconds()/float64(tp.iterations))
		ckpts = append(ckpts, float64(tp.checkpoints))
		ckptSecs = append(ckptSecs, tp.ckptSecs)
		scatter = append(scatter, phases[shard.PhaseScatter.String()]/float64(applies))
		exchange = append(exchange, phases[shard.PhaseExchange.String()]/float64(applies))
		local = append(local, phases[shard.PhaseLocal.String()]/float64(applies))
	}
	rep.e2e["ops_per_s"] = rate(1, median(prot)) // one operation at a time
	latencyMetrics(rep, prot, rawT)
	worst := 0.0
	for _, d := range diffs {
		worst = max(worst, d)
	}
	rep.meta["reference"] = map[string]any{
		"iterations": median(iters), "checks": median(checks), "recorded": hasRecord, "worst_norm_rel_diff": worst,
		"norm_bound": maskBound(int(median(iters))), "paper_bound": paperNormRelDiff, "paper_bound_met": worst <= paperNormRelDiff,
	}
	if c.rec == nil {
		return rep, nil
	}

	rep.bypassed = []string{"tealeaf", "service"}
	l := rep.layers
	l["ecc.checks_per_solve"] = median(checks)
	l["solvers.iterations"] = median(iters)
	l["par.dispatches_per_iter"] = median(disp)
	l["solvers.apply_share"] = median(applyShare)
	l["solvers.engine_self_s_per_iter"] = median(engineSelf)
	l["solvers.checkpoints"] = median(ckpts)
	l["solvers.checkpoint_s_per_solve"] = median(ckptSecs)
	l["precond.apply_s_per_iter"] = median(prePerIt)
	l["precond.apply_share"] = median(preShare)
	l["shard.scatter_s_per_apply"] = median(scatter)
	l["shard.exchange_s_per_apply"] = median(exchange)
	l["shard.local_s_per_apply"] = median(local)
	l["protect.overhead_x"] = rep.e2e["latency_p50_s"] / rep.e2e["raw_latency_p50_s"]
	l["trace.overhead_frac"] = median(traced)/median(untracedT) - 1
	return rep, probeLayers(plain, core.CRC32C, c.seed, l)
}

// irrRHSSet returns the seed's right-hand sides.
func irrRHSSet(seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rhs := make([][]float64, irrRHS)
	for k := range rhs {
		rhs[k] = seededRHS(rng, irrN)
	}
	return rhs
}

// matchRef records s as the reference on first sight and otherwise
// reports whether s repeats it exactly.
func matchRef(ref **irrRef, s irrSolve) bool {
	got := &irrRef{iterations: s.iterations, checks: s.checks, hash: bitsHash(s.x)}
	if *ref == nil {
		*ref = got
		return true
	}
	return **ref == *got
}
