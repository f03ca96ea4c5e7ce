package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/service"
	"abft/internal/solvers"
)

// service-mixed: an in-process abftd (service.New behind httptest) with
// one solve worker and the scrub daemon on, driven by a closed loop of
// svcClients clients on keep-alive connections, as abftd's ?wait=1
// callers each wait for their reply.
const (
	svcClients = 2
	svcWorkers = 2 // kernel workers each request asks for
	svcScrub   = 250 * time.Millisecond
	// svcRawShare of the measured time replays the schedule against the
	// raw twin (every scheme none); the rest drives protected traffic.
	// Protected latency drifts with host load over seconds, so the
	// protected phase gets most of the run to average over.
	svcRawShare = 1.0 / 4
	// svcTol is the relative tolerance requested; svcResidual the bound
	// the client holds the true residual ||b - Ax|| / ||b|| to.
	svcTol      = 1e-8
	svcResidual = 1e-6
)

// Request kinds of the mix, with their shares of schedule entries: the
// 60/20/20 single/batch/burst split of abftload's mixed scenario, with
// selective and never-seen requests taken out of the single-RHS share.
const (
	kindSingle    = "single"    // repeat-operator CG: cache hits, ModeShared reads
	kindBatch     = "batch"     // rhs_batch of width 2-8: SpMM and block CG
	kindSelective = "selective" // FGMRES on convection-diffusion, ModeUnverified inner solve
	kindMiss      = "miss"      // never-seen operator: build and encode, csr/coo/sellcs in rotation
	kindBurst     = "burst"     // 3 identical async submissions: coalescer bait
)

var svcMix = []struct {
	kind  string
	share float64
}{
	{kindSingle, 0.42}, {kindBatch, 0.20}, {kindSelective, 0.12}, {kindMiss, 0.06}, {kindBurst, 0.20},
}

// Hot operators: Laplacian grids for singles (the batch and burst
// operators are among them) and one convection-diffusion operator.
var (
	svcGrids      = []int{32, 40, 48}
	svcBatchGrid  = 32
	svcBurstGrid  = 48
	svcConvGrid   = 24
	svcRHSPerGrid = 3
	svcBurstWidth = 3
	// svcBatchWidths are the rhs_batch templates' widths.
	svcBatchWidths = []int{2, 3, 4, 5, 6, 7, 8}
	// svcMissCells bounds the cell count of never-seen operators, so
	// every miss builds and solves a problem of about the same size.
	svcMissCells = [2]int{1000, 1300}
)

// svcRequest is one schedule entry: protected and raw bodies of the same
// request, the operator and right-hand sides to check the answer against,
// and how many identical copies it submits (a burst submits several).
type svcRequest struct {
	kind      string
	key       string // identity of repeatable requests; empty for misses
	prot, raw []byte
	a         *csr.Matrix
	b         [][]float64
	copies    int
}

// svcSchedule is the seeded traffic: a pool of repeatable hot requests,
// the never-seen operators in order, and the sequence of picks.
type svcSchedule struct {
	seed  int64
	hot   []*svcRequest
	picks []int // index into hot, or -1-m for the m-th miss
	pairs [][2]int
}

// svcPicks is the schedule length; a run consumes a prefix. svcBlock is
// the length of the blocks the mix is exact over.
const (
	svcPicks = 1 << 16
	svcBlock = 100
)

func seededRHS(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return b
}

// protect sets every protection scheme of r that applies to its format.
func protect(r *service.SolveRequest, scheme string) {
	r.Scheme, r.VectorScheme = scheme, scheme
	if r.Format == "" || r.Format == "csr" {
		r.RowPtrScheme = scheme
	}
}

// newSvcRequest marshals req in its protected and raw forms.
func newSvcRequest(kind, key string, req service.SolveRequest, a *csr.Matrix, b [][]float64, copies int) (*svcRequest, error) {
	protect(&req, "secded64")
	prot, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	protect(&req, "none")
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &svcRequest{kind: kind, key: key, prot: prot, raw: raw, a: a, b: b, copies: copies}, nil
}

// buildSchedule derives the whole traffic from seed.
func buildSchedule(seed int64) (*svcSchedule, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &svcSchedule{seed: seed}
	base := func() service.SolveRequest {
		return service.SolveRequest{Format: "csr", Solver: "cg", Tol: svcTol, RelativeTol: true, Workers: svcWorkers}
	}
	grid := func(g int) service.MatrixSpec { return service.MatrixSpec{Grid: &service.GridSpec{NX: g, NY: g}} }
	var byKind = map[string][]int{}
	add := func(r *svcRequest, err error) error {
		if err != nil {
			return err
		}
		byKind[r.kind] = append(byKind[r.kind], len(s.hot))
		s.hot = append(s.hot, r)
		return nil
	}
	for _, g := range svcGrids {
		a := csr.Laplacian2D(g, g)
		for k := 0; k < svcRHSPerGrid; k++ {
			b := seededRHS(rng, g*g)
			req := base()
			req.Matrix, req.B = grid(g), b
			if err := add(newSvcRequest(kindSingle, fmt.Sprintf("single/%d/%d", g, k), req, a, [][]float64{b}, 1)); err != nil {
				return nil, err
			}
		}
	}
	ab := csr.Laplacian2D(svcBatchGrid, svcBatchGrid)
	for k, width := range svcBatchWidths {
		cols := make([][]float64, width)
		for j := range cols {
			cols[j] = seededRHS(rng, svcBatchGrid*svcBatchGrid)
		}
		req := base()
		req.Matrix, req.RHSBatch = grid(svcBatchGrid), cols
		if err := add(newSvcRequest(kindBatch, fmt.Sprintf("batch/%d", k), req, ab, cols, 1)); err != nil {
			return nil, err
		}
	}
	conv := csr.ConvectionDiffusion2D(svcConvGrid, svcConvGrid, 1.5, 0.5)
	spec := service.MatrixSpec{Rows: conv.Rows(), Cols: conv.Cols32()}
	for r := 0; r < conv.Rows(); r++ {
		for k := conv.RowPtr[r]; k < conv.RowPtr[r+1]; k++ {
			spec.Entries = append(spec.Entries, service.Triplet{Row: r, Col: int(conv.Cols[k]), Val: conv.Vals[k]})
		}
	}
	for k := 0; k < svcRHSPerGrid; k++ {
		b := seededRHS(rng, conv.Rows())
		req := base()
		req.Matrix, req.B, req.Solver, req.Reliability = spec, b, "fgmres", "selective"
		if err := add(newSvcRequest(kindSelective, fmt.Sprintf("selective/%d", k), req, conv, [][]float64{b}, 1)); err != nil {
			return nil, err
		}
	}
	ag := csr.Laplacian2D(svcBurstGrid, svcBurstGrid)
	bb := seededRHS(rng, svcBurstGrid*svcBurstGrid)
	req := base()
	req.Matrix, req.B, req.Tol = grid(svcBurstGrid), bb, svcTol/100
	if err := add(newSvcRequest(kindBurst, "burst", req, ag, [][]float64{bb}, svcBurstWidth)); err != nil {
		return nil, err
	}

	// Never-seen operators: grids of distinct shape and similar size,
	// none square (so none is a hot grid), in seeded order.
	for nx := 8; nx <= 48; nx++ {
		for ny := 8; ny <= 48; ny++ {
			if cells := nx * ny; nx != ny && cells >= svcMissCells[0] && cells <= svcMissCells[1] {
				s.pairs = append(s.pairs, [2]int{nx, ny})
			}
		}
	}
	rng.Shuffle(len(s.pairs), func(i, j int) { s.pairs[i], s.pairs[j] = s.pairs[j], s.pairs[i] })

	// Picks come in blocks of svcBlock holding each kind in exactly its
	// share, shuffled within the block, and each kind cycles through its
	// templates: every stretch of the run carries the same mix, so run
	// to run differences are not differences of composition.
	for _, m := range svcMix {
		pool := byKind[m.kind]
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	next := map[string]int{}
	misses := 0
	for len(s.picks) < svcPicks {
		var block []string
		for _, m := range svcMix {
			for k := 0; k < int(m.share*svcBlock+0.5); k++ {
				block = append(block, m.kind)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			if kind == kindMiss {
				s.picks = append(s.picks, -1-misses%len(s.pairs))
				misses++
				continue
			}
			pool := byKind[kind]
			s.picks = append(s.picks, pool[next[kind]%len(pool)])
			next[kind]++
		}
	}
	return s, nil
}

// missFormats is the rotation never-seen operators are pinned to; this
// is the only traffic that runs COO.
var missFormats = []string{"csr", "coo", "sellcs"}

// request returns the i-th request of the schedule. Misses are built on
// demand from their seeded shape.
func (s *svcSchedule) request(i int) (*svcRequest, error) {
	p := s.picks[i%len(s.picks)]
	if p >= 0 {
		return s.hot[p], nil
	}
	m := -1 - p
	nx, ny := s.pairs[m][0], s.pairs[m][1]
	a := csr.Laplacian2D(nx, ny)
	b := seededRHS(rand.New(rand.NewSource(s.seed*1_000_003+int64(m))), nx*ny)
	req := service.SolveRequest{
		Matrix: service.MatrixSpec{Grid: &service.GridSpec{NX: nx, NY: ny}}, B: b,
		Format: missFormats[m%len(missFormats)], Solver: "cg", Tol: svcTol, RelativeTol: true, Workers: svcWorkers,
	}
	return newSvcRequest(kindMiss, "", req, a, [][]float64{b}, 1)
}

// svcClient talks to the service over one keep-alive connection.
type svcClient struct {
	hc   *http.Client
	base string
}

func (c *svcClient) do(method, path string, body []byte, want int) (service.JobStatus, error) {
	var st service.JobStatus
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != want {
		return st, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return st, json.Unmarshal(data, &st)
}

// poll waits for an async job to finish.
func (c *svcClient) poll(id string) (service.JobStatus, error) {
	for {
		st, err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK)
		if err != nil || st.State == service.StateDone || st.State == service.StateFailed {
			return st, err
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape reads /metrics into a map from series to value.
func (c *svcClient) scrape() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, sc.Err()
}

// svcResult is one request's outcome.
type svcResult struct {
	start  time.Time
	secs   float64
	sync   bool
	status service.JobStatus
	err    error
}

// issue sends one schedule entry with the given body and returns one
// result per submitted copy: a waited POST for single copies, async
// submissions polled to completion for bursts.
func (c *svcClient) issue(r *svcRequest, body []byte) []svcResult {
	if r.copies == 1 {
		start := time.Now()
		st, err := c.do(http.MethodPost, "/v1/solve?wait=1", body, http.StatusOK)
		return []svcResult{{start: start, secs: time.Since(start).Seconds(), sync: true, status: st, err: err}}
	}
	out := make([]svcResult, r.copies)
	ids := make([]string, r.copies)
	for i := range out {
		out[i].start = time.Now()
		st, err := c.do(http.MethodPost, "/v1/solve", body, http.StatusAccepted)
		ids[i], out[i].err = st.ID, err
	}
	for i := range out {
		if out[i].err != nil {
			continue
		}
		out[i].status, out[i].err = c.poll(ids[i])
		out[i].secs = time.Since(out[i].start).Seconds()
	}
	return out
}

// verify checks a finished job: done, converged, and every column's true
// residual within svcResidual of its right-hand side.
func verify(r *svcRequest, st service.JobStatus) error {
	if st.State != service.StateDone || st.Result == nil {
		return fmt.Errorf("state %s: %s", st.State, st.Error)
	}
	xs := [][]float64{st.Result.X}
	if len(r.b) > 1 || len(st.Result.XBatch) > 0 {
		xs = st.Result.XBatch
	}
	if len(xs) != len(r.b) {
		return fmt.Errorf("%d solutions for %d right-hand sides", len(xs), len(r.b))
	}
	ax := make([]float64, r.a.Rows())
	for j, x := range xs {
		if len(x) != r.a.Cols32() {
			return fmt.Errorf("solution %d has length %d, want %d", j, len(x), r.a.Cols32())
		}
		r.a.SpMV(ax, x)
		res := make([]float64, len(ax))
		for i := range ax {
			res[i] = r.b[j][i] - ax[i]
		}
		if rel := norm2(res) / norm2(r.b[j]); !(rel <= svcResidual) {
			return fmt.Errorf("column %d: residual %.3g above %.3g", j, rel, svcResidual)
		}
	}
	return nil
}

// svcRecord is what the first answer to a repeatable request recorded.
type svcRecord struct {
	iterations []int
	hash       uint64
}

func recordOf(st service.JobStatus) svcRecord {
	res := st.Result
	if len(res.Columns) > 0 {
		rec := svcRecord{}
		for _, c := range res.Columns {
			rec.iterations = append(rec.iterations, c.Iterations)
		}
		for _, x := range res.XBatch {
			rec.hash ^= bitsHash(x)
		}
		return rec
	}
	return svcRecord{iterations: []int{res.Iterations}, hash: bitsHash(res.X)}
}

// svcPhase is the outcome of driving the schedule for a while.
type svcPhase struct {
	wall    float64
	results []svcResult
	reqs    []*svcRequest // the request of each result
}

// drive runs the closed loop from the start of the schedule until
// deadline, choosing the protected or raw body of each request.
func drive(s *svcSchedule, clients []*svcClient, raw bool, d time.Duration) (*svcPhase, error) {
	var next atomic.Int64
	var mu sync.Mutex
	ph := &svcPhase{}
	var firstErr error
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *svcClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r, err := s.request(int(next.Add(1) - 1))
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				body := r.prot
				if raw {
					body = r.raw
				}
				res := c.issue(r, body)
				mu.Lock()
				for _, x := range res {
					ph.results = append(ph.results, x)
					ph.reqs = append(ph.reqs, r)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start).Seconds()
	return ph, firstErr
}

// svcStack is a running service with its clients.
type svcStack struct {
	srv     *service.Server
	ts      *httptest.Server
	clients []*svcClient
}

func (st *svcStack) close() {
	st.clients[0].hc.CloseIdleConnections() // the clients share one transport
	st.ts.Close()
	st.srv.Close()
}

// startService starts abftd in-process and sends one warm-up request per
// hot operator, so the timed traffic finds them resident.
func startService(s *svcSchedule, raw bool) (*svcStack, error) {
	srv := service.New(service.Config{Workers: 1, MaxSolveWorkers: svcWorkers, ScrubInterval: svcScrub})
	ts := httptest.NewServer(srv)
	st := &svcStack{srv: srv, ts: ts}
	tr := &http.Transport{MaxIdleConnsPerHost: svcClients, MaxConnsPerHost: svcClients}
	for i := 0; i < svcClients; i++ {
		st.clients = append(st.clients, &svcClient{hc: &http.Client{Transport: tr}, base: ts.URL})
	}
	if err := warm(st, s, raw); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// warm sends one waited request per hot request kind and operator.
func warm(st *svcStack, s *svcSchedule, raw bool) error {
	seen := map[string]bool{}
	for _, r := range s.hot {
		id := fmt.Sprintf("%s/%d", r.kind, r.a.Rows())
		if seen[id] {
			continue
		}
		seen[id] = true
		body := r.prot
		if raw {
			body = r.raw
		}
		res, err := st.clients[0].do(http.MethodPost, "/v1/solve?wait=1", body, http.StatusOK)
		if err == nil {
			err = verify(r, res)
		}
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", r.key, err)
		}
	}
	return nil
}

func runService(c *runCtx) (*report, error) {
	rep := newReport()
	sched, err := buildSchedule(c.seed)
	if err != nil {
		return nil, err
	}
	var stack *svcStack
	heap0 := heapMB()
	setup, err := medianSetup(func() error {
		var err error
		stack, err = startService(sched, false)
		return err
	}, func() { stack.close(); stack = nil })
	if err != nil {
		return nil, err
	}
	defer stack.close()
	rep.e2e["setup_s"] = setup
	rep.e2e["resident_mb"] = heapMB() - heap0
	if err := warm(stack, sched, true); err != nil {
		return nil, err
	}
	maxRows := svcBurstGrid * svcBurstGrid
	rep.meta["sizes"] = map[string]any{
		"grids": svcGrids, "convection_diffusion_grid": svcConvGrid, "clients": svcClients,
		"solve_workers": 1, "kernel_workers": svcWorkers, "scrub_interval": svcScrub.String(),
		// The largest hot operator: five-point CSR plus five CG vectors.
		"working_set_bytes": maxRows*5*12 + 5*maxRows*8,
	}

	m0, err := stack.clients[0].scrape()
	if err != nil {
		return nil, err
	}
	d0 := dispatches()
	protD := time.Duration(float64(c.seconds) * (1 - svcRawShare))
	prot, err := drive(sched, stack.clients, false, protD)
	if err != nil {
		return nil, err
	}
	disp := dispatches() - d0
	m1, err := stack.clients[0].scrape()
	if err != nil {
		return nil, err
	}
	raw, err := drive(sched, stack.clients, true, c.seconds-protD)
	if err != nil {
		return nil, err
	}

	records := map[string]svcRecord{}
	check := func(ph *svcPhase, prefix string) []float64 {
		var lat []float64
		for i, res := range ph.results {
			r := ph.reqs[i]
			rep.attempted++
			err := res.err
			if err == nil {
				err = verify(r, res.status)
			}
			if err == nil && r.key != "" {
				got := recordOf(res.status)
				key := prefix + r.key
				if want, ok := records[key]; !ok {
					records[key] = got
				} else if fmt.Sprint(want) != fmt.Sprint(got) {
					err = fmt.Errorf("answer differs from the first answer to the same request: %v vs %v", got, want)
				}
			}
			if err != nil {
				rep.fail("%s%s request %d: %v", prefix, r.kind, i, err)
				continue
			}
			lat = append(lat, res.secs)
		}
		return lat
	}
	protLat := check(prot, "")
	rawLat := check(raw, "raw/")
	rep.e2e["ops_per_s"] = rate(len(protLat), prot.wall)
	latencyMetrics(rep, protLat, rawLat)
	delta := func(series string) float64 { return m1[series] - m0[series] }
	jobs := delta(`abftd_jobs_total{state="done"}`) + delta(`abftd_jobs_total{state="failed"}`)
	hits, builds := delta("abftd_cache_hits_total"), delta("abftd_cache_builds_total")
	byKind := map[string][]float64{}
	for i, res := range prot.results {
		byKind[prot.reqs[i].kind] = append(byKind[prot.reqs[i].kind], res.secs)
	}
	kinds := map[string]any{}
	for k, v := range byKind {
		kinds[k] = map[string]any{"requests": len(v), "latency_p50_s": median(v)}
	}
	rep.meta["protected_requests_by_kind"] = kinds
	rep.meta["cache"] = map[string]float64{"hits": hits, "builds": builds, "jobs": jobs, "coalesced": delta("abftd_jobs_coalesced_total")}
	if c.rec == nil {
		return rep, nil
	}

	rep.bypassed = []string{"shard", "precond", "tealeaf"}
	l := rep.layers
	stages := map[string][]float64{}
	var httpS, checks, iters []float64
	for i, res := range prot.results {
		if res.err != nil || res.status.Result == nil {
			continue
		}
		c.rec.Add("request", 0, i+1, res.start, res.start.Add(time.Duration(res.secs*float64(time.Second))))
		staged := 0.0
		if res.status.Trace != nil {
			for name, secs := range res.status.Trace.StageSeconds {
				stages[name] = append(stages[name], secs)
				staged += secs
			}
		}
		if res.sync {
			httpS = append(httpS, res.secs-staged)
		}
		checks = append(checks, float64(res.status.Result.Checks))
		iters = append(iters, float64(res.status.Result.Iterations))
	}
	l["service.admission_s_p50"] = median(stages[service.StageAdmission])
	l["service.queue_wait_s_p50"] = median(stages[service.StageQueueWait])
	l["service.build_s_p50"] = median(stages[service.StageBuild])
	l["service.solve_s_p50"] = median(stages[service.StageSolve])
	l["service.http_s_p50"] = median(httpS)
	l["service.cache_hit_ratio"] = hits / (hits + builds)
	l["service.coalesced_frac"] = delta("abftd_jobs_coalesced_total") / jobs
	l["ecc.checks_per_solve"] = median(checks)
	l["solvers.iterations"] = median(iters)
	l["par.dispatches_per_iter"] = float64(disp) / sum(iters)
	l["solvers.checkpoints"] = 0
	l["solvers.checkpoint_s_per_solve"] = 0
	l["protect.overhead_x"] = rep.e2e["latency_p50_s"] / rep.e2e["raw_latency_p50_s"]
	if err := replayHot(sched, records, c.rec, len(prot.results), rep); err != nil {
		return nil, err
	}
	a := csr.Laplacian2D(svcBurstGrid, svcBurstGrid)
	return rep, probeLayers(a, core.SECDED64, c.seed, l)
}

// svcReplays is how many untraced/traced pairs replayHot runs per hot
// single; one pair of millisecond solves is too short to time tracing.
const svcReplays = 5

// replayHot replays every hot CG single in-process through
// solvers.Solve, untraced and then behind a timed operator, on an
// operator built and read the way the service caches it. Both replays
// must reproduce the service's recorded iterations and solution bits.
func replayHot(s *svcSchedule, records map[string]svcRecord, rec *Recorder, opBase int, rep *report) error {
	var share, self, overhead []float64
	for _, r := range s.hot {
		if r.kind != kindSingle {
			continue
		}
		want, ok := records[r.key]
		if !ok {
			continue
		}
		m, err := op.New(op.CSR, r.a, op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64})
		if err != nil {
			return err
		}
		m.SetReadMode(core.ModeShared)
		mo := solvers.MatrixOperator{M: m, Workers: svcWorkers}
		solve := func(a solvers.Operator) (float64, svcRecord, error) {
			b := core.VectorFromSlice(r.b[0], core.SECDED64)
			x := core.NewVector(len(r.b[0]), core.SECDED64)
			start := time.Now()
			res, err := solvers.Solve(solvers.KindCG, a, x, b, solvers.Options{Tol: svcTol, RelativeTol: true, Workers: svcWorkers})
			secs := time.Since(start).Seconds()
			if err != nil {
				return 0, svcRecord{}, err
			}
			out := make([]float64, x.Len())
			if err := x.CopyTo(out); err != nil {
				return 0, svcRecord{}, err
			}
			return secs, svcRecord{iterations: []int{res.Iterations}, hash: bitsHash(out)}, nil
		}
		for k := 0; k < svcReplays; k++ {
			u, got, err := solve(mo)
			if err != nil {
				return err
			}
			opBase++
			start := time.Now()
			solveID := rec.Add("solve", 0, opBase, start, start)
			t := &tracer{rec: rec, op: opBase, parent: solveID}
			tsecs, tgot, err := solve(wrapOperator(mo, t))
			rec.End(solveID)
			if err != nil {
				return err
			}
			if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(tgot) != fmt.Sprint(want) {
				rep.fail("replay of %s: %v untraced, %v traced, service answered %v", r.key, got, tgot, want)
				break
			}
			spans := rec.Spans()
			apply := 0.0
			for _, sp := range spans {
				if sp.Parent == solveID && sp.Name == "apply" {
					apply += sp.Dur().Seconds()
				}
			}
			share = append(share, apply/spans[solveID-1].Dur().Seconds())
			self = append(self, selfTimes(spans)[solveID].Seconds()/float64(want.iterations[0]))
			overhead = append(overhead, tsecs/u-1)
		}
	}
	if len(share) == 0 {
		return fmt.Errorf("no hot single was answered, nothing to replay")
	}
	rep.layers["solvers.apply_share"] = median(share)
	rep.layers["solvers.engine_self_s_per_iter"] = median(self)
	rep.layers["trace.overhead_frac"] = median(overhead)
	return nil
}
