package stat

import "testing"

// set builds ten runs of one workload whose metric m takes the given values.
func set(m string, vals ...float64) []Run {
	var rs []Run
	for i, v := range vals {
		rs = append(rs, Run{Workload: "w", Seed: int64(i + 1), Metrics: map[string]float64{m: v}})
	}
	return rs
}

func verdict(t *testing.T, d Def, a, b []Run) Row {
	t.Helper()
	rows, err := Compare([]Def{d}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	return rows[0]
}

func TestCompareClearWin(t *testing.T) {
	d := Def{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.05}
	a := set("wall_s", 10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98)
	b := set("wall_s", 9.0, 9.1, 8.9, 9.05, 8.95, 9.0, 9.1, 8.9, 9.02, 8.98)
	if r := verdict(t, d, a, b); r.Verdict != Win || r.WinFrac != 1 {
		t.Errorf("verdict %q win frac %v, want win at 1.0", r.Verdict, r.WinFrac)
	}
}

func TestCompareRegression(t *testing.T) {
	d := Def{Name: "sim_instrs_per_s", Unit: "instr/s", Better: "higher", Bound: 0.05}
	a := set("sim_instrs_per_s", 100, 101, 99, 100, 100.5, 99.5, 100, 101, 99, 100)
	b := set("sim_instrs_per_s", 90, 91, 89, 90, 90.5, 89.5, 90, 91, 89, 90)
	if r := verdict(t, d, a, b); r.Verdict != Regression {
		t.Errorf("verdict %q, want regression", r.Verdict)
	}
	// A drop inside the bound is no change.
	c := set("sim_instrs_per_s", 99, 100, 98, 99, 99.5, 98.5, 99, 100, 98, 99)
	if r := verdict(t, d, a, c); r.Verdict != NoChange {
		t.Errorf("verdict %q, want no-change", r.Verdict)
	}
}

func TestCompareUnresolved(t *testing.T) {
	d := Def{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	a := set("latency_tail_ms", 10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10)
	noisy := set("latency_tail_ms", 5, 15, 8, 12, 6, 14, 9, 11, 7, 13)
	if r := verdict(t, d, a, noisy); r.Verdict != Unresolved {
		t.Errorf("verdict %q, want unresolved", r.Verdict)
	}
	// Noisy but better in every run than every parent run: judged, not unresolved.
	better := set("latency_tail_ms", 1, 3, 2, 4, 1.5, 3.5, 2.5, 1.2, 3.8, 2.2)
	if r := verdict(t, d, a, better); r.Verdict != Win {
		t.Errorf("verdict %q, want win", r.Verdict)
	}
}

// A metric without a bound is never a regression or unresolved, but a gain
// on it is claimed by the same rule.
func TestCompareUnboundedMetric(t *testing.T) {
	d := Def{Name: "wall_s", Unit: "s", Better: "lower"}
	a := set("wall_s", 10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98)
	faster := set("wall_s", 9.0, 9.1, 8.9, 9.05, 8.95, 9.0, 9.1, 8.9, 9.02, 8.98)
	if r := verdict(t, d, a, faster); r.Verdict != Win {
		t.Errorf("verdict %q, want win", r.Verdict)
	}
	slower := set("wall_s", 20, 21, 19, 20, 20, 20, 21, 19, 20, 20)
	if r := verdict(t, d, a, slower); r.Verdict != Info {
		t.Errorf("verdict %q, want info", r.Verdict)
	}
}

func TestCompareExact(t *testing.T) {
	d := Def{Name: "pipeline.sim_cycles", Unit: "count", Exact: true}
	a := set("pipeline.sim_cycles", 5, 5, 5)
	if r := verdict(t, d, a, set("pipeline.sim_cycles", 5, 5, 5)); r.Verdict != Identical {
		t.Errorf("verdict %q, want identical", r.Verdict)
	}
	if r := verdict(t, d, a, set("pipeline.sim_cycles", 5, 6, 5)); r.Verdict != Changed {
		t.Errorf("verdict %q, want changed", r.Verdict)
	}
}

func TestCompareSkipsMissingMetric(t *testing.T) {
	d := Def{Name: "absent", Better: "lower", Bound: 0.1}
	rows, err := Compare([]Def{d}, set("x", 1), set("x", 1))
	if err != nil || len(rows) != 0 {
		t.Errorf("got %d rows, error %v, for a metric no run carries", len(rows), err)
	}
}

// Runs pair by seed only: a seed on one side alone is an error, not a pair.
func TestCompareRejectsUnpairedSeeds(t *testing.T) {
	d := Def{Name: "wall_s", Better: "lower", Bound: 0.1}
	a := set("wall_s", 1, 1, 1)
	for _, b := range [][]Run{
		set("wall_s", 1, 1),       // A has seed 3, B lacks it
		set("wall_s", 1, 1, 1, 1), // B has seed 4, A lacks it
		append(set("wall_s", 1, 1, 1), Run{Workload: "w", Seed: 1, Metrics: map[string]float64{"wall_s": 1}}),
	} {
		if _, err := Compare([]Def{d}, a, b); err == nil {
			t.Errorf("B with seeds %v paired against A seeds 1-3 without error", seeds(b))
		}
	}
}

func seeds(rs []Run) []int64 {
	var s []int64
	for _, r := range rs {
		s = append(s, r.Seed)
	}
	return s
}
