package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// JSONResult is one machine-readable benchmark sample, the schema the
// BENCH_*.json perf trajectory records: a stable name, the mean
// protected wall time in nanoseconds, how many runs were averaged and
// the overhead against the configuration's baseline.
type JSONResult struct {
	Name        string  `json:"name"`
	NsPerOp     int64   `json:"ns_per_op"`
	Iterations  int     `json:"iterations"`
	OverheadPct float64 `json:"overhead_pct"`
}

// RowsJSON converts a figure's rows into JSON samples, prefixing each
// label with the figure name so samples stay unique across figures.
func RowsJSON(figure string, runs int, rows []Row) []JSONResult {
	out := make([]JSONResult, 0, len(rows))
	for _, r := range rows {
		out = append(out, JSONResult{
			Name:        figure + "/" + r.Label,
			NsPerOp:     r.Protected.Nanoseconds(),
			Iterations:  runs,
			OverheadPct: r.OverheadPct,
		})
	}
	return out
}

// SeriesJSON converts a check-interval sweep into JSON samples, one per
// interval point.
func SeriesJSON(figure string, runs int, s Series) []JSONResult {
	out := make([]JSONResult, 0, len(s.Points))
	for _, p := range s.Points {
		out = append(out, JSONResult{
			Name:        jsonName(figure, s.Label, p.Interval),
			NsPerOp:     p.Time.Nanoseconds(),
			Iterations:  runs,
			OverheadPct: p.OverheadPct,
		})
	}
	return out
}

func jsonName(figure, label string, interval int) string {
	return fmt.Sprintf("%s/%s/interval-%d", figure, label, interval)
}

// RunMeta identifies the environment a BENCH_*.json file was produced
// in, so trajectory comparisons can tell a code regression from a
// toolchain or host change.
type RunMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// GitCommit is the revision the samples were measured at: the
	// worktree's short HEAD when git is reachable, otherwise the vcs
	// revision stamped into the binary, otherwise "unknown". Builds from
	// test binaries and `go run` carry no VCS stamp, which used to leave
	// committed trajectories without provenance.
	GitCommit string `json:"git_commit,omitempty"`
}

// CollectMeta captures the current run environment.
func CollectMeta() RunMeta {
	return RunMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitCommit:  gitCommit(),
	}
}

// gitCommit resolves the revision for RunMeta.GitCommit: git first
// (works in every dev and CI invocation, including `go run` and test
// binaries), the binary's build info second, "unknown" last.
func gitCommit() string {
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// Report is the on-disk schema of a benchmark run: the environment it
// ran in plus the samples it produced.
type Report struct {
	Meta    RunMeta      `json:"meta"`
	Results []JSONResult `json:"results"`
}

// WriteJSON serialises the collected samples, wrapped in a Report that
// records the run environment, as indented JSON.
func WriteJSON(w io.Writer, results []JSONResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Report{Meta: CollectMeta(), Results: results})
}

// ReadReport parses a benchmark file written by WriteJSON.
func ReadReport(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("bench: not a benchmark report: %w", err)
	}
	if rep.Results == nil {
		return Report{}, fmt.Errorf("bench: not a benchmark report: no results")
	}
	return rep, nil
}
