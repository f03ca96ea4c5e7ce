package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/shard"
	"abft/internal/solvers"
)

func TestTailOfNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so sorting matters
		}
		return xs
	}
	cases := []struct {
		n       int
		want    tail
		comment string
	}{
		{10000, tail{Value: 9990, Percentile: 99.9, N: 10000, Beyond: 10}, "p99.9 has exactly 10 beyond"},
		{1000, tail{Value: 990, Percentile: 99, N: 1000, Beyond: 10}, "p99.9 has 1 beyond, p99 has 10"},
		{999, tail{Value: 950, Percentile: 95, N: 999, Beyond: 49}, "p99 has 9 beyond"},
		{100, tail{Value: 90, Percentile: 90, N: 100, Beyond: 10}, ""},
		{40, tail{Value: 30, Percentile: 75, N: 40, Beyond: 10}, ""},
		{39, tail{Value: 30, Percentile: 75, N: 39, Beyond: 9}, "no ladder step has 10 beyond: the upper quartile"},
		{9, tail{Value: 7, Percentile: 75, N: 9, Beyond: 2}, ""},
		{1, tail{Value: 1, Percentile: 75, N: 1}, ""},
	}
	for _, c := range cases {
		if got := tailOf(seq(c.n)); got != c.want {
			t.Errorf("n=%d: got %+v, want %+v %s", c.n, got, c.want, c.comment)
		}
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("empty sample: got %+v", got)
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	// root [0,100] has children a [10,40] and b [35,60], which overlap;
	// a has a child [20,30]; b has a child poking past its end.
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a1", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "b", Start: 35, End: 60},
		{ID: 5, Parent: 4, Name: "b1", Start: 50, End: 70},
	}
	want := map[int]time.Duration{1: 50, 2: 20, 3: 10, 4: 15, 5: 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestRecorderSpans(t *testing.T) {
	r := NewRecorder()
	now := time.Now()
	root := r.Add("op", 0, 7, now, now)
	child := r.Add("apply", root, 7, now, now)
	r.End(child)
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 {
		t.Fatalf("spans %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Fatalf("child %+v not inside parent %+v", spans[1], spans[0])
	}
	path := filepath.Join(t.TempDir(), "x", "spans.json")
	if err := r.Write(path); err != nil {
		t.Fatal(err)
	}
	var back []Span
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, spans) {
		t.Fatalf("round trip %+v, %v", back, err)
	}
}

// dotOnly is a matrix offering the Dot capability and nothing else
// optional.
type dotOnly struct{ core.ProtectedMatrix }

func (dotOnly) Dot(a, b *core.Vector) (float64, error) { return 0, nil }

func TestWrapForwardsExactlyTheCapabilities(t *testing.T) {
	plain := csr.Laplacian2D(16, 16)
	cfg := op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}
	m := map[string]core.ProtectedMatrix{}
	for _, f := range []op.Format{op.CSR, op.COO, op.SELLCS} {
		pm, err := op.New(f, plain, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m[f.String()] = pm
	}
	sh, err := shard.New(plain, shard.Options{Shards: 2, Format: op.SELLCS, Config: op.Config{Scheme: core.CRC32C}, VectorScheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	m["shard"] = sh
	m["interface-only"] = struct{ core.ProtectedMatrix }{m["csr"]}
	m["dot-only"] = dotOnly{m["csr"]}
	want := map[string]int{
		"csr": capBatch | capUnverified, "coo": capBatch | capUnverified, "sellcs": capBatch | capUnverified,
		"shard":          capDot | capBand | capBatch | capUnverified,
		"interface-only": 0,
		"dot-only":       capDot,
	}
	for name, pm := range m {
		for _, noCache := range []bool{false, true} {
			mo := solvers.MatrixOperator{M: pm, Workers: 2, DisableCache: noCache}
			w := wantCaps(want[name], noCache)
			if got := opCaps(mo); got != w {
				t.Errorf("%s: matrix operator caps %b, want %b", name, got, w)
			}
			if got := opCaps(wrapOperator(mo, &tracer{rec: NewRecorder()})); got != w {
				t.Errorf("%s (cache off %v): wrapper caps %b, want %b", name, noCache, got, w)
			}
		}
	}
}

func wantCaps(c int, noCache bool) int {
	if noCache {
		return c &^ capBatch
	}
	return c
}

// TestWrappedSolveIsTheSameSolve: a CG solve through the timed wrapper
// runs the same iterations, the same integrity checks and produces the
// same bits as through the bare operator — for a plain CSR matrix, where
// a stray Dot would turn fusion off and change the check count, and for
// the sharded composite, whose Dot and bands must be forwarded.
func TestWrappedSolveIsTheSameSolve(t *testing.T) {
	plain := csr.Laplacian2D(24, 24)
	sh, err := shard.New(plain, shard.Options{Shards: 2, Format: op.CSR, Config: op.Config{Scheme: core.SECDED64}, VectorScheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := op.New(op.CSR, plain, op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	b := seededRHS(rand.New(rand.NewSource(3)), plain.Rows())
	for name, pm := range map[string]core.ProtectedMatrix{"csr": flat, "shard": sh} {
		run := func(wrap bool) (int, uint64, uint64, int) {
			cnt := &core.Counters{}
			pm.SetCounters(cnt)
			bv := core.VectorFromSlice(b, core.SECDED64)
			bv.SetCounters(cnt)
			x := core.NewVector(len(b), core.SECDED64)
			x.SetCounters(cnt)
			mo := solvers.MatrixOperator{M: pm, Workers: 2}
			var a solvers.Operator = mo
			rec := NewRecorder()
			if wrap {
				a = wrapOperator(mo, &tracer{rec: rec})
			}
			res, err := solvers.Solve(solvers.KindCG, a, x, bv, solvers.Options{Tol: 1e-10, RelativeTol: true, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			out := make([]float64, len(b))
			if err := x.CopyTo(out); err != nil {
				t.Fatal(err)
			}
			return res.Iterations, cnt.Checks(), bitsHash(out), len(rec.Spans())
		}
		it, checks, hash, _ := run(false)
		wit, wchecks, whash, spans := run(true)
		if it != wit || checks != wchecks || hash != whash {
			t.Errorf("%s: wrapped solve %d iterations, %d checks, hash %x; bare %d, %d, %x",
				name, wit, wchecks, whash, it, checks, hash)
		}
		if spans == 0 {
			t.Errorf("%s: wrapped solve recorded no apply spans", name)
		}
	}
}

func TestSeedFixesInputs(t *testing.T) {
	a, err := buildSchedule(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSchedule(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildSchedule(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.picks, b.picks) {
		t.Fatal("same seed, different request schedules")
	}
	if reflect.DeepEqual(a.picks, c.picks) {
		t.Fatal("different seeds, same request schedule")
	}
	kinds := map[string]bool{}
	for i := 0; i < 400; i++ {
		ra, err := a.request(i)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.request(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ra.prot, rb.prot) || !bytes.Equal(ra.raw, rb.raw) || ra.kind != rb.kind {
			t.Fatalf("request %d differs between two schedules of one seed", i)
		}
		kinds[ra.kind] = true
	}
	for _, m := range svcMix {
		if !kinds[m.kind] {
			t.Errorf("no %s request among the first 400", m.kind)
		}
	}
	if !reflect.DeepEqual(irrRHSSet(5), irrRHSSet(5)) || reflect.DeepEqual(irrRHSSet(5), irrRHSSet(6)) {
		t.Error("irregular right-hand sides do not follow the seed")
	}
	if !reflect.DeepEqual(teaDeck(5), teaDeck(5)) || reflect.DeepEqual(teaDeck(5), teaDeck(6)) {
		t.Error("tealeaf deck does not follow the seed")
	}
}

func TestFasterThanRawIsFlagged(t *testing.T) {
	raw := []float64{1.0, 1.1, 1.2, 1.3}
	if !fasterThanRaw([]float64{0.5, 0.6, 0.7, 0.8}, raw) {
		t.Error("protected run wholly below the raw twin not flagged")
	}
	if fasterThanRaw([]float64{0.9, 1.05, 1.2, 1.4}, raw) {
		t.Error("overlapping spreads flagged")
	}
	rep := newReport()
	latencyMetrics(rep, []float64{0.5, 0.6, 0.7, 0.8}, raw)
	if rep.failed != 1 {
		t.Errorf("latencyMetrics counted %d failures for an impossible result", rep.failed)
	}
}

func TestCheckRecorded(t *testing.T) {
	want, ok := recorded["irregular-pcg"][runtime.GOMAXPROCS(0)]
	if !ok {
		t.Skipf("no record at GOMAXPROCS %d", runtime.GOMAXPROCS(0))
	}
	if has, err := checkRecorded("irregular-pcg", want); !has || err != nil {
		t.Errorf("recorded counts refused: %v, %v", has, err)
	}
	more := want
	more.checks *= 2
	if _, err := checkRecorded("irregular-pcg", more); err == nil {
		t.Error("doubled checks passed")
	}
	more = want
	more.iterations++
	more.rawIterations++
	if _, err := checkRecorded("irregular-pcg", more); err == nil {
		t.Error("an extra iteration in both the protected and the raw solve passed")
	}
	if has, err := checkRecorded("service-mixed", counts{}); has || err != nil {
		t.Errorf("a workload without a record: %v, %v", has, err)
	}
}

func TestCompareRefusesMixedGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, procs int) string {
		p := filepath.Join(dir, name)
		b, _ := json.Marshal(map[string]any{
			"meta":       map[string]any{"gomaxprocs": procs, "workload": "tealeaf-cg"},
			"end_to_end": map[string]float64{"latency_p50_s": 1},
		})
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a.json", 1), write("b.json", 2), write("c.json", 2)
	var out bytes.Buffer
	if err := compareReports(a, b, &out); err == nil || !strings.Contains(err.Error(), "gomaxprocs") {
		t.Errorf("compare across GOMAXPROCS: %v", err)
	}
	if err := compareReports(b, c, &out); err != nil || !strings.Contains(out.String(), "latency_p50_s") {
		t.Errorf("compare at equal GOMAXPROCS: %v, %q", err, out.String())
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which declares the
// benchmark to whoever runs it, in step with the metrics and workloads
// the program emits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string }
		PerLayer  []struct{ Name, Unit string }
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	var raw map[string]json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for key, dst := range map[string]any{"workloads": &spec.Workloads, "end_to_end": &spec.EndToEnd, "per_layer": &spec.PerLayer} {
		if err := json.Unmarshal(raw[key], dst); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", what, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s vs %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestEmitCompleteness(t *testing.T) {
	rep := newReport()
	rep.attempted = 1
	for _, d := range endToEnd {
		rep.e2e[d.Name] = 1
	}
	w := &workloads[0]
	var out bytes.Buffer
	if err := emit(&out, w, rep, map[string]any{}, false, ""); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) || res.Metrics["ops_per_s"].Unit != "1/s" {
		t.Fatalf("result line %+v", res)
	}
	// A traced report missing a per-layer metric is an error, not a gap.
	if err := emit(&out, w, rep, map[string]any{}, true, ""); err == nil {
		t.Fatal("traced report without per-layer metrics emitted")
	}
}
