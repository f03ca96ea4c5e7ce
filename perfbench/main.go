// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed wall time, checks every output it produces, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// ledger) as the last line of standard output:
//
//	perfbench --workload tealeaf-cg --seed 1 --seconds 30 --trace 0
//
// Every layer is timed from outside, around calls into the public
// functions of the program's packages; see README.md for the workloads,
// the metrics and which layer metric should move which end-to-end one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric and its unit; the tables below are the
// contract BENCHMARK.json declares (a test keeps the two in step).
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"latency_p50_s", "s"},
	{"latency_tail_s", "s"},
	{"ops_per_s", "1/s"},
	{"raw_latency_p50_s", "s"},
	{"setup_s", "s"},
	{"resident_mb", "MB"},
}

var perLayer = []metricDef{
	{"ecc.secded64_check_ns", "ns"},
	{"ecc.secded64_encode_ns", "ns"},
	{"ecc.crc32c_check_ns", "ns"},
	{"ecc.checks_per_solve", "count"},
	{"core.read_ns_per_elem.exclusive", "ns"},
	{"core.read_ns_per_elem.shared", "ns"},
	{"core.read_ns_per_elem.unverified", "ns"},
	{"core.fused_tail_ns_per_row", "ns"},
	{"csr.apply_ns_per_nnz", "ns"},
	{"csr.raw_apply_ns_per_nnz", "ns"},
	{"sell.apply_ns_per_nnz", "ns"},
	{"coo.apply_ns_per_nnz", "ns"},
	{"shard.scatter_s_per_apply", "s"},
	{"shard.exchange_s_per_apply", "s"},
	{"shard.local_s_per_apply", "s"},
	{"par.dispatches_per_iter", "count"},
	{"par.dispatch_ns", "ns"},
	{"precond.apply_s_per_iter", "s"},
	{"precond.apply_share", "ratio"},
	{"solvers.iterations", "count"},
	{"solvers.apply_share", "ratio"},
	{"solvers.engine_self_s_per_iter", "s"},
	{"solvers.checkpoints", "count"},
	{"solvers.checkpoint_s_per_solve", "s"},
	{"tealeaf.step_self_s", "s"},
	{"service.admission_s_p50", "s"},
	{"service.queue_wait_s_p50", "s"},
	{"service.build_s_p50", "s"},
	{"service.solve_s_p50", "s"},
	{"service.http_s_p50", "s"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced_frac", "ratio"},
	{"protect.overhead_x", "x"},
	{"trace.overhead_frac", "ratio"},
}

// layerOf is the layer a per-layer metric belongs to: the text before
// its first dot.
func layerOf(name string) string { return name[:strings.IndexByte(name, '.')] }

// runCtx is what a workload receives.
type runCtx struct {
	seed    int64
	seconds time.Duration
	// rec is non-nil on a traced run.
	rec *Recorder
}

// report is what a workload returns.
type report struct {
	attempted, failed int
	// failures holds the first few failure reasons.
	failures []string
	e2e      map[string]float64
	layers   map[string]float64
	// bypassed lists the layers the workload never calls; their
	// per-layer metrics report 0.
	bypassed []string
	meta     map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, meta: map[string]any{}}
}

// fail counts one failed operation or check and keeps its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// workload is one named input set.
type workload struct {
	name, why string
	run       func(*runCtx) (*report, error)
}

var workloads = []workload{
	{"tealeaf-cg", "the paper's workload: TeaLeaf CG at nx=256, full SECDED64 on unsharded CSR, against a raw twin", runTeaLeaf},
	{"irregular-pcg", "unstructured SPD matrix, SELL-C-sigma in 2 shards, block-Jacobi PCG with rollback: misses the stencil cache", runIrregular},
	{"service-mixed", "in-process abftd under 2 closed-loop clients: cache hits and misses, batches, selective FGMRES, coalesced bursts", runService},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 30, "measured wall time in seconds")
		traced  = fs.Int("trace", 0, "1 runs the traced per-layer ledger")
		out     = fs.String("out", "", "also write the full report as JSON to this file")
		compare = fs.Bool("compare", false, "compare two --out reports given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("--compare needs two report files")
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (choices: %s)", *name, strings.Join(names, ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", *traced)
	}
	ctx := &runCtx{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *traced == 1 {
		ctx.rec = NewRecorder()
	}
	rep, err := w.run(ctx)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	meta := runMeta(w, *seed, *seconds, *traced == 1)
	for k, v := range rep.meta {
		meta[k] = v
	}
	if ctx.rec != nil {
		path := filepath.Join(buildDir(), "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := ctx.rec.Write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		meta["spans_file"] = path
	}
	return emit(stdout, w, rep, meta, *traced == 1, *out)
}

// buildDir is where the benchmark keeps what it writes: the directory
// the build script builds into.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// runMeta records what a comparison of two runs must hold equal or know.
func runMeta(w *workload, seed int64, seconds int, traced bool) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":          w.name,
		"why":               w.why,
		"seed":              seed,
		"seconds":           seconds,
		"traced":            traced,
		"go_version":        runtime.Version(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"nproc":             runtime.NumCPU(),
		"commit":            commit,
		"l2_bytes_per_core": l2PerCore,
		"l3_bytes":          l3Bytes,
		"cache_note": "every working set here fits the 300 MiB L3, so every number is cache-resident; " +
			"the rule of arrays at least 4x the last-level cache (1.2 GB) cannot be met on this host",
	}
}

// Cache sizes of the host the benchmark was defined on (2 vCPU).
const (
	l2PerCore = 4 << 20
	l3Bytes   = 300 << 20
)

// emit checks the report is complete, prints a readable summary and the
// result line, and writes the full report when asked.
func emit(stdout io.Writer, w *workload, rep *report, meta map[string]any, traced bool, out string) error {
	for _, l := range rep.bypassed {
		for _, d := range perLayer {
			if layerOf(d.Name) == l {
				if _, set := rep.layers[d.Name]; set {
					return fmt.Errorf("%s: bypassed layer %s reports %s", w.name, l, d.Name)
				}
				rep.layers[d.Name] = 0
			}
		}
	}
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layers
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s not measured", w.name, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Only a run without successful operations divides by
			// zero; it is already incorrect, and JSON has no NaN.
			rep.fail("metric %s is %v", d.Name, v)
			v = 0
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	meta["bypassed_layers"] = rep.bypassed
	meta["failures"] = rep.failures
	correct := rep.failed == 0 && rep.attempted > 0
	failedFrac := 0.0
	if rep.attempted > 0 {
		failedFrac = float64(rep.failed) / float64(rep.attempted)
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%v traced=%v: %d attempted, %d failed (failed_frac %.4g)\n",
		w.name, meta["seed"], traced, rep.attempted, rep.failed, failedFrac)
	for _, f := range rep.failures {
		fmt.Fprintln(stdout, "  FAILED:", f)
	}
	printTable(stdout, endToEnd, rep.e2e)
	if traced {
		printTable(stdout, perLayer, rep.layers)
	}
	mb, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(mb))
	if out != "" {
		full := map[string]any{"meta": meta, "end_to_end": rep.e2e, "per_layer": rep.layers,
			"attempted": rep.attempted, "failed": rep.failed}
		b, err := json.MarshalIndent(full, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, b, 0o644); err != nil {
			return err
		}
	}
	res, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(res))
	return nil
}

// printTable prints the measured metrics of defs, one per line.
func printTable(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

// compareReports prints new/old for every metric two --out reports
// share. Runs at different GOMAXPROCS measure different machines, so
// they are refused rather than compared.
func compareReports(oldPath, newPath string, w io.Writer) error {
	type rep struct {
		Meta     map[string]any     `json:"meta"`
		EndToEnd map[string]float64 `json:"end_to_end"`
		PerLayer map[string]float64 `json:"per_layer"`
	}
	load := func(p string) (rep, error) {
		var r rep
		b, err := os.ReadFile(p)
		if err != nil {
			return r, err
		}
		return r, json.Unmarshal(b, &r)
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	if a.Meta["gomaxprocs"] != b.Meta["gomaxprocs"] {
		return fmt.Errorf("refusing to compare: gomaxprocs %v vs %v", a.Meta["gomaxprocs"], b.Meta["gomaxprocs"])
	}
	if a.Meta["workload"] != b.Meta["workload"] {
		return fmt.Errorf("refusing to compare: workload %v vs %v", a.Meta["workload"], b.Meta["workload"])
	}
	for _, part := range []struct{ old, new map[string]float64 }{{a.EndToEnd, b.EndToEnd}, {a.PerLayer, b.PerLayer}} {
		names := make([]string, 0, len(part.old))
		for n := range part.old {
			if _, ok := part.new[n]; ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			o, v := part.old[n], part.new[n]
			ratio := "n/a"
			if o != 0 {
				ratio = fmt.Sprintf("%.3f", v/o)
			}
			fmt.Fprintf(w, "%-34s %14.6g -> %14.6g  new/old %s\n", n, o, v, ratio)
		}
	}
	return nil
}
