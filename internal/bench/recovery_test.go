package bench

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"abft/internal/solvers"
)

func TestRecoveryOverheadRuns(t *testing.T) {
	rows, err := RecoveryOverhead(tinyOpts(), solvers.RecoveryRollback, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d want 2", len(rows))
	}
	for _, r := range rows {
		if r.Base <= 0 || r.Protected <= 0 {
			t.Fatalf("row %s has non-positive times: %+v", r.Label, r)
		}
	}
	if rows[0].Label != "rollback/interval-4" || rows[1].Label != "rollback/interval-16" {
		t.Fatalf("unexpected labels: %+v", rows)
	}
	// The off policy falls back to rollback, and the default intervals
	// include the solvers package's adaptive starting cadence.
	rows, err = RecoveryOverhead(tinyOpts(), solvers.RecoveryOff, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rows {
		if r.Label == "rollback/interval-32" {
			found = true
		}
	}
	if !found {
		t.Fatalf("default intervals missing the headline cadence: %+v", rows)
	}
}

func TestJSONConversions(t *testing.T) {
	rows := []Row{{Label: "sed", Base: time.Second, Protected: 1100 * time.Millisecond, OverheadPct: 10}}
	got := RowsJSON("fig4", 3, rows)
	if len(got) != 1 || got[0].Name != "fig4/sed" || got[0].NsPerOp != 1100*1000*1000 ||
		got[0].Iterations != 3 || got[0].OverheadPct != 10 {
		t.Fatalf("rows conversion wrong: %+v", got)
	}
	s := Series{Label: "crc32c-sw", Points: []Point{
		{Interval: 1, OverheadPct: 50, Time: 2 * time.Second},
		{Interval: 8, OverheadPct: 20, Time: time.Second},
	}}
	gs := SeriesJSON("fig8", 2, s)
	if len(gs) != 2 || gs[1].Name != "fig8/crc32c-sw/interval-8" || gs[1].NsPerOp != 1e9 {
		t.Fatalf("series conversion wrong: %+v", gs)
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, got); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0] != got[0] {
		t.Fatalf("round trip lost data: %+v", rep.Results)
	}
	if rep.Meta.GoVersion == "" || rep.Meta.GOMAXPROCS < 1 ||
		rep.Meta.GOOS == "" || rep.Meta.GOARCH == "" {
		t.Fatalf("run metadata incomplete: %+v", rep.Meta)
	}

	// A bare sample array is not a Report: every committed trajectory
	// carries its run metadata.
	bare, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(bytes.NewReader(bare)); err == nil {
		t.Fatal("bare sample array accepted as a report")
	}
}
