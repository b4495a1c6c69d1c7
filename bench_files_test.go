package repro

// Guard rails for the standing benchmark trajectory files: BENCH_cluster.json
// (cmd/benchcluster), and BENCH_annotate.json, BENCH_boot.json,
// BENCH_search.json and BENCH_geo.json, frozen history whose writers are gone
// (bench/ measures annotation throughput and boot time; BenchmarkIndexAdd in
// internal/search and BenchmarkDisambiguationGraph measure index build and the
// Figure 7 sweep), must always parse, keep at least their seeded history, and
// append chronologically — a rebase or hand-edit that reorders or truncates
// the history should fail CI, not silently rewrite the project's performance
// record.

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// trajectoryFile is the shared shape of both BENCH_*.json files: a
// description plus labelled runs with optional RFC 3339 timestamps.
type trajectoryFile struct {
	Description string `json:"description"`
	Runs        []struct {
		Label      string `json:"label"`
		RecordedAt string `json:"recorded_at"`
	} `json:"runs"`
}

func checkTrajectory(t *testing.T, path string, minRuns int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var traj trajectoryFile
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatalf("%s does not parse as a trajectory file: %v", path, err)
	}
	if traj.Description == "" {
		t.Errorf("%s: empty description", path)
	}
	if len(traj.Runs) < minRuns {
		t.Fatalf("%s: %d runs, want at least %d (history truncated?)", path, len(traj.Runs), minRuns)
	}
	var last time.Time
	for i, r := range traj.Runs {
		if r.Label == "" {
			t.Errorf("%s: run %d has no label", path, i)
		}
		if r.RecordedAt == "" {
			continue // runs recorded before the timestamp field existed
		}
		at, err := time.Parse(time.RFC3339, r.RecordedAt)
		if err != nil {
			t.Errorf("%s: run %d recorded_at %q: %v", path, i, r.RecordedAt, err)
			continue
		}
		if at.Before(last) {
			t.Errorf("%s: run %d (%s) recorded before run above it (%s); runs must append chronologically",
				path, i, at.Format(time.RFC3339), last.Format(time.RFC3339))
		}
		last = at
	}
}

func TestBenchTrajectoryFiles(t *testing.T) {
	checkTrajectory(t, "BENCH_search.json", 2)
	checkTrajectory(t, "BENCH_annotate.json", 1)
	// The geo trajectory must keep both seeded runs: the all-pairs
	// baseline and the sparse rewrite it is compared against.
	checkTrajectory(t, "BENCH_geo.json", 2)
	// The boot trajectory must keep the replay-on-load baseline and the
	// direct-image load run recorded against it.
	checkTrajectory(t, "BENCH_boot.json", 2)
	checkTrajectory(t, "BENCH_cluster.json", 1)
}

// TestBenchGeoRecord holds the component-parallel resolver to its
// acceptance bar: the recorded huge-table address-workload pair (whole-table
// engine vs component engine at workers=4, same geometry, >= 5000 rows)
// must show at least 2x resolve throughput, a genuine decomposition, and a
// recorded peak-scratch bound well under the whole graph's CSR footprint.
func TestBenchGeoRecord(t *testing.T) {
	data, err := os.ReadFile("BENCH_geo.json")
	if err != nil {
		t.Fatal(err)
	}
	var traj struct {
		Runs []struct {
			Label  string `json:"label"`
			Points []struct {
				Rows               int     `json:"rows"`
				Edges              int     `json:"edges"`
				ResolveCellsPerSec float64 `json:"resolve_cells_per_sec"`
				Workload           string  `json:"workload"`
				Engine             string  `json:"engine"`
				Workers            int     `json:"workers"`
				Components         int     `json:"components"`
				LargestComponent   int     `json:"largest_component"`
				PeakScratchBytes   int64   `json:"peak_scratch_bytes"`
			} `json:"points"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatal(err)
	}
	single := map[int]float64{} // rows -> best recorded single-engine resolve throughput
	ok := false
	for _, r := range traj.Runs {
		for _, p := range r.Points {
			if p.Workload != "address" || p.Rows < 5000 {
				continue
			}
			if p.Engine == "single" {
				if p.ResolveCellsPerSec > single[p.Rows] {
					single[p.Rows] = p.ResolveCellsPerSec
				}
				continue
			}
			base := single[p.Rows]
			if p.Engine != "components" || p.Workers != 4 || base == 0 {
				continue
			}
			// Not every recorded pair has to clear the bar (smaller tables
			// amortize the workers less) — but at least one must.
			if p.ResolveCellsPerSec < 2*base {
				continue
			}
			if p.Components < 2 || p.LargestComponent == 0 {
				t.Errorf("run %q rows=%d: no decomposition recorded: %+v", r.Label, p.Rows, p)
				continue
			}
			// The pooled scratch must stay well under the whole graph's
			// edge arrays alone (8 bytes per directed edge across the two
			// CSR index arrays is already an undercount of the full-graph
			// footprint the old engine held).
			if full := int64(p.Edges) * 8; p.PeakScratchBytes <= 0 || p.PeakScratchBytes >= full {
				t.Errorf("run %q rows=%d: peak scratch %d bytes not bounded below whole-graph %d",
					r.Label, p.Rows, p.PeakScratchBytes, full)
				continue
			}
			ok = true
		}
	}
	if !ok {
		t.Error("BENCH_geo.json records no qualifying huge-table pair (address workload, >= 5000 rows, single vs components at workers=4)")
	}
}

// TestBenchClusterRecord holds the distributed tier to its acceptance bar:
// the recorded 4-replica saturation run must show at least a 3× aggregate
// goodput over one process, and hedging must not make the tail worse than
// running the same router unhedged over the same stalled workers.
func TestBenchClusterRecord(t *testing.T) {
	data, err := os.ReadFile("BENCH_cluster.json")
	if err != nil {
		t.Fatal(err)
	}
	var traj struct {
		Runs []struct {
			Label    string  `json:"label"`
			Replicas int     `json:"replicas"`
			Speedup  float64 `json:"speedup_cluster_over_single"`
			Tail     struct {
				UnhedgedP999Ms float64 `json:"unhedged_p999_ms"`
				HedgedP999Ms   float64 `json:"hedged_p999_ms"`
				HedgesFired    int64   `json:"hedges_fired"`
			} `json:"tail"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatal(err)
	}
	if len(traj.Runs) == 0 {
		t.Fatal("BENCH_cluster.json records no runs")
	}
	r := traj.Runs[len(traj.Runs)-1]
	if r.Replicas < 4 {
		t.Errorf("latest run measured %d replicas, want the 4-replica point", r.Replicas)
	}
	if r.Speedup < 3 {
		t.Errorf("latest run %q: cluster speedup %.2fx, want >= 3x over a single process", r.Label, r.Speedup)
	}
	if r.Tail.HedgedP999Ms <= 0 || r.Tail.UnhedgedP999Ms <= 0 {
		t.Fatalf("latest run %q: tail phase not recorded: %+v", r.Label, r.Tail)
	}
	if r.Tail.HedgedP999Ms > r.Tail.UnhedgedP999Ms {
		t.Errorf("latest run %q: hedged p999 %.0fms worse than unhedged %.0fms at the same offered rate",
			r.Label, r.Tail.HedgedP999Ms, r.Tail.UnhedgedP999Ms)
	}
	if r.Tail.HedgesFired == 0 {
		t.Errorf("latest run %q: hedging never fired during the stall phase", r.Label)
	}
}
