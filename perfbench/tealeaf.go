package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"abft/internal/core"
	"abft/internal/solvers"
	"abft/internal/tealeaf"
)

// teaNX is the grid edge of the paper's workload: about 7 MB of
// protected solver state, twice the 4 MiB per-core L2.
const teaNX = 256

// teaDeck is the tea_bm deck at teaNX with full SECDED64 (elements, row
// pointers, vectors) on unsharded CSR, solved by CG on 2 workers. The
// seed scales each state's energy by a factor within 1 +- 5e-4: the
// inputs differ per seed while the work per step stays the same.
func teaDeck(seed int64) tealeaf.Config {
	cfg := tealeaf.DefaultConfig()
	cfg.NX, cfg.NY = teaNX, teaNX
	cfg.Workers = 2
	cfg.ElemScheme, cfg.RowPtrScheme, cfg.VectorScheme = core.SECDED64, core.SECDED64, core.SECDED64
	rng := rand.New(rand.NewSource(seed))
	for i := range cfg.States {
		cfg.States[i].Energy *= 1 + 1e-3*(rng.Float64()-0.5)
	}
	return cfg
}

// rawDeck is the same deck with every scheme None.
func rawDeck(cfg tealeaf.Config) tealeaf.Config {
	cfg.ElemScheme, cfg.RowPtrScheme, cfg.VectorScheme = core.None, core.None, core.None
	return cfg
}

// teaStep is one operation's outcome.
type teaStep struct {
	secs       float64
	iterations int
	checks     uint64
	dispatches uint64
	energy     []float64
}

// step runs one timestep from the initial energy field e0. Every
// operation restarts from e0, so each does the same work and repeats
// the first step's iterations, checks and solution bits exactly.
func step(sim *tealeaf.Simulation, e0 []float64) (teaStep, error) {
	copy(sim.Energy(), e0)
	d0 := dispatches()
	start := time.Now()
	res, err := sim.Advance()
	secs := time.Since(start).Seconds()
	if err != nil {
		return teaStep{}, err
	}
	return teaStep{
		secs:       secs,
		iterations: res.Iterations,
		checks:     res.Checks,
		dispatches: dispatches() - d0,
		energy:     append([]float64(nil), sim.Energy()...),
	}, nil
}

func runTeaLeaf(c *runCtx) (*report, error) {
	rep := newReport()
	cfg := teaDeck(c.seed)
	var sim *tealeaf.Simulation
	heap0 := heapMB()
	setup, err := medianSetup(func() error {
		var err error
		sim, err = tealeaf.New(cfg)
		return err
	}, func() { sim = nil })
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	rep.e2e["resident_mb"] = heapMB() - heap0
	rawSim, err := tealeaf.New(rawDeck(cfg))
	if err != nil {
		return nil, err
	}
	n := teaNX * teaNX
	nnz := sim.Matrix().NNZ()
	// CSR elements and row pointers plus the five CG vectors (x, b, r,
	// p, Ap), computed from the sizes.
	ws := nnz*12 + (n+1)*4 + 5*n*8
	rep.meta["sizes"] = map[string]int{"nx": teaNX, "rows": n, "nnz": nnz, "working_set_bytes": ws}

	e0 := append([]float64(nil), sim.Energy()...)
	r0 := append([]float64(nil), rawSim.Energy()...)
	ref, err := step(sim, e0)
	if err != nil {
		return nil, fmt.Errorf("protected warm-up step: %w", err)
	}
	rawRef, err := step(rawSim, r0)
	if err != nil {
		return nil, fmt.Errorf("raw warm-up step: %w", err)
	}
	refHash, rawHash := bitsHash(ref.energy), bitsHash(rawRef.energy)
	x, rawX := make([]float64, n), make([]float64, n)
	for i, d := range sim.Density() {
		x[i], rawX[i] = d*ref.energy[i], d*rawRef.energy[i]
	}
	diff, err := checkTwin(x, rawX, ref.iterations, rawRef.iterations)
	if err != nil {
		rep.fail("%v", err)
	}
	hasRecord, err := checkRecorded("tealeaf-cg", counts{ref.iterations, ref.checks, rawRef.iterations})
	if err != nil {
		rep.fail("first step: %v", err)
	}
	rep.meta["reference"] = map[string]any{
		"iterations": ref.iterations, "checks": ref.checks, "raw_iterations": rawRef.iterations, "recorded": hasRecord,
		"norm_rel_diff": diff, "norm_bound": maskBound(ref.iterations),
		"paper_bound": paperNormRelDiff, "paper_bound_met": diff <= paperNormRelDiff,
	}

	var prot, raw, replays, applyShare, engineSelf []float64
	deadline := time.Now().Add(c.seconds)
	for opID := 1; time.Now().Before(deadline); opID++ {
		rep.attempted++
		p, err := step(sim, e0)
		if err != nil {
			rep.fail("op %d: protected step: %v", opID, err)
			continue
		}
		r, err := step(rawSim, r0)
		if err != nil {
			rep.fail("op %d: raw step: %v", opID, err)
			continue
		}
		if p.iterations != ref.iterations || p.checks != ref.checks || bitsHash(p.energy) != refHash {
			rep.fail("op %d: protected step drifted: %d iterations, %d checks (recorded %d, %d)",
				opID, p.iterations, p.checks, ref.iterations, ref.checks)
			continue
		}
		if r.iterations != rawRef.iterations || bitsHash(r.energy) != rawHash {
			rep.fail("op %d: raw step drifted", opID)
			continue
		}
		prot = append(prot, p.secs)
		raw = append(raw, r.secs)
		if c.rec == nil {
			continue
		}
		tr, err := teaReplay(sim, e0, p, c.rec, opID)
		if err != nil {
			rep.fail("op %d: traced replay: %v", opID, err)
			continue
		}
		replays = append(replays, tr.secs)
		applyShare = append(applyShare, tr.apply/tr.solve)
		engineSelf = append(engineSelf, tr.solveSelf/float64(tr.iterations))
	}
	rep.e2e["ops_per_s"] = rate(1, median(prot)) // one operation at a time
	latencyMetrics(rep, prot, raw)
	if c.rec == nil {
		return rep, nil
	}

	rep.bypassed = []string{"shard", "precond", "service"}
	l := rep.layers
	l["ecc.checks_per_solve"] = float64(ref.checks)
	l["solvers.iterations"] = float64(ref.iterations)
	l["par.dispatches_per_iter"] = float64(ref.dispatches) / float64(ref.iterations)
	l["solvers.apply_share"] = median(applyShare)
	l["solvers.engine_self_s_per_iter"] = median(engineSelf)
	l["solvers.checkpoints"] = 0
	l["solvers.checkpoint_s_per_solve"] = 0
	if l["tealeaf.step_self_s"], err = stepSelf(cfg, e0); err != nil {
		return nil, err
	}
	l["protect.overhead_x"] = rep.e2e["latency_p50_s"] / rep.e2e["raw_latency_p50_s"]
	l["trace.overhead_frac"] = median(replays)/rep.e2e["latency_p50_s"] - 1
	plain, err := sim.Matrix().(*core.Matrix).ToCSR()
	if err != nil {
		return nil, err
	}
	return rep, probeLayers(plain, core.SECDED64, c.seed, l)
}

// teaTrace is one traced replay: its whole wall time, the solve span,
// the apply spans under it, the solve's self time, and the iterations.
type teaTrace struct {
	secs, solve, apply, solveSelf float64
	iterations                    int
}

// solveInput builds the step's right-hand side and initial guess from
// e0 the way Advance does: u = density*energy, written block by block
// into vectors of the simulation's scheme, counters and CRC backend.
func solveInput(sim *tealeaf.Simulation, e0 []float64) (b, x *core.Vector) {
	cfg := sim.Config()
	density := sim.Density()
	n := len(density)
	newVec := func() *core.Vector {
		v := core.NewVector(n, cfg.VectorScheme)
		v.SetCounters(sim.Counters())
		v.SetCRCBackend(cfg.CRCBackend)
		return v
	}
	b, x = newVec(), newVec()
	var buf [4]float64
	for blk := 0; blk*4 < n; blk++ {
		for i := range buf {
			buf[i] = 0
			if idx := blk*4 + i; idx < n {
				buf[i] = density[idx] * e0[idx]
			}
		}
		b.WriteBlock(blk, &buf)
		x.WriteBlock(blk, &buf)
	}
	return b, x
}

// solveOptions are the solver options Advance passes for cfg.
func solveOptions(cfg tealeaf.Config) solvers.Options {
	return solvers.Options{
		Tol: cfg.Eps, RelativeTol: cfg.RelativeTol, MaxIter: cfg.MaxIters, Workers: cfg.Workers,
		EigenIters: cfg.EigenIters, InnerSteps: cfg.InnerSteps, Recovery: cfg.Recovery,
	}
}

// teaReplay replays the step from e0 outside the simulation, the way
// Advance runs it, with the solve going through solvers.Solve on the
// simulation's own matrix behind a timed operator (the simulation cannot
// take a wrapped operator). It checks the replay against the untraced
// step p: equal iterations, equal check counts and the same solution
// bits.
func teaReplay(sim *tealeaf.Simulation, e0 []float64, p teaStep, rec *Recorder, opID int) (teaTrace, error) {
	cfg := sim.Config()
	density := sim.Density()
	n := len(density)
	cnt := sim.Counters()
	before := cnt.Snapshot()
	start := time.Now()
	root := rec.Add("replay", 0, opID, start, start)
	b, x := solveInput(sim, e0)
	opt := solveOptions(cfg)
	solveStart := time.Now()
	solveID := rec.Add("solve", root, opID, solveStart, solveStart)
	t := &tracer{rec: rec, op: opID, parent: solveID}
	res, err := solvers.Solve(cfg.Solver, wrapOperator(solvers.MatrixOperator{M: sim.Matrix(), Workers: cfg.Workers}, t), x, b, opt)
	rec.End(solveID)
	if err != nil {
		return teaTrace{}, err
	}
	got := make([]float64, n)
	if err := x.CopyTo(got); err != nil {
		return teaTrace{}, err
	}
	energy := make([]float64, n)
	for i := range got {
		energy[i] = got[i] / density[i]
	}
	rec.End(root)
	checks := cnt.Snapshot().Checks - before.Checks
	if res.Iterations != p.iterations || checks != p.checks {
		return teaTrace{}, fmt.Errorf("replay ran %d iterations and %d checks, the step %d and %d",
			res.Iterations, checks, p.iterations, p.checks)
	}
	for i := range energy {
		if math.Float64bits(energy[i]) != math.Float64bits(p.energy[i]) {
			return teaTrace{}, fmt.Errorf("replay solution differs from the step at cell %d", i)
		}
	}
	spans := rec.Spans()
	self := selfTimes(spans)
	tr := teaTrace{iterations: res.Iterations, solveSelf: self[solveID].Seconds()}
	for _, s := range spans {
		switch {
		case s.ID == root:
			tr.secs = s.Dur().Seconds()
		case s.ID == solveID:
			tr.solve = s.Dur().Seconds()
		case s.Parent == solveID && s.Name == "apply":
			tr.apply += s.Dur().Seconds()
		}
	}
	return tr, nil
}

// stepSelfRepeats is how many short steps and short solves stepSelf
// times; it reports the difference of their medians.
const stepSelfRepeats = 25

// stepSelf is the wall time of tealeaf's own work in a step: Advance
// minus the solvers.Solve call inside it. A full step's solve takes
// seconds and varies by more than the few milliseconds around it, so
// both sides run on a twin of the deck whose tolerance ends the solve
// after its first iteration: Advance on the twin, against
// solvers.Solve on the twin's matrix with the same options, vectors
// and input, interleaved and repeated from e0.
func stepSelf(cfg tealeaf.Config, e0 []float64) (float64, error) {
	cfg.Eps, cfg.RelativeTol = 1e100, false
	sim, err := tealeaf.New(cfg)
	if err != nil {
		return 0, err
	}
	opt := solveOptions(cfg)
	mo := solvers.MatrixOperator{M: sim.Matrix(), Workers: cfg.Workers}
	steps := make([]float64, stepSelfRepeats)
	solves := make([]float64, stepSelfRepeats)
	for k := range steps {
		p, err := step(sim, e0)
		if err != nil {
			return 0, fmt.Errorf("short step: %w", err)
		}
		steps[k] = p.secs
		b, x := solveInput(sim, e0)
		start := time.Now()
		res, err := solvers.Solve(cfg.Solver, mo, x, b, opt)
		solves[k] = time.Since(start).Seconds()
		if err != nil {
			return 0, fmt.Errorf("short solve: %w", err)
		}
		if res.Iterations != p.iterations {
			return 0, fmt.Errorf("short solve ran %d iterations, the short step %d", res.Iterations, p.iterations)
		}
	}
	return median(steps) - median(solves), nil
}
