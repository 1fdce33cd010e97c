package stat

import (
	"fmt"
	"math"
	"sort"
)

// Def is what the comparison rule needs to know about one metric. Its JSON
// form is the metric's entry in BENCHMARK.json.
type Def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // allowed worsening as a share of the parent median; 0 = none
	Exact  bool    `json:"-"`               // deterministic model output: must repeat bit for bit
}

// Run is one run's metrics, as read back from its run.json.
type Run struct {
	Workload string
	Seed     int64
	Metrics  map[string]float64
}

// Summary is one side of a comparison.
type Summary struct {
	N              int
	Q1, Median, Q3 float64
	Spread         float64 // (Q3-Q1)/median
}

// Verdicts of the comparison rule.
const (
	Win        = "win"        // ≥9/10 of pairs won and the medians differ by more than the parent's IQR
	NoChange   = "no-change"  // within the bound, no claim
	Regression = "regression" // worse than the parent median by more than the bound
	Unresolved = "unresolved" // a side's spread exceeds the bound
	Identical  = "identical"  // exact metric, every pair equal
	Changed    = "changed"    // exact metric, some pair differs
	Info       = "info"       // no bound and no claim: reported, never a regression
)

// Row is the verdict for one (workload, metric) pairing.
type Row struct {
	Workload, Metric, Unit string
	A, B                   Summary
	Pairs                  int
	WinFrac                float64
	Verdict                string
}

func summarize(xs []float64) Summary {
	q1, q2, q3 := Quartiles(xs)
	return Summary{N: len(xs), Q1: q1, Median: q2, Q3: q3, Spread: Spread(xs)}
}

// better reports whether x beats y in the metric's direction.
func (d Def) better(x, y float64) bool {
	if d.Better == "higher" {
		return x > y
	}
	return x < y
}

// pairUp matches A and B runs of one workload by seed. Both sides must have
// run the same seeds, once each: a pair of different inputs says nothing.
func pairUp(wl string, a, b []Run) ([][2]Run, error) {
	bySeed := func(rs []Run) (map[int64]Run, error) {
		m := map[int64]Run{}
		for _, r := range rs {
			if _, dup := m[r.Seed]; dup {
				return nil, fmt.Errorf("%s: seed %d appears twice on one side", wl, r.Seed)
			}
			m[r.Seed] = r
		}
		return m, nil
	}
	am, err := bySeed(a)
	if err != nil {
		return nil, err
	}
	bm, err := bySeed(b)
	if err != nil {
		return nil, err
	}
	for s := range bm {
		if _, ok := am[s]; !ok {
			return nil, fmt.Errorf("%s: seed %d ran only on side B", wl, s)
		}
	}
	var pairs [][2]Run
	for _, r := range a {
		m, ok := bm[r.Seed]
		if !ok {
			return nil, fmt.Errorf("%s: seed %d ran only on side A", wl, r.Seed)
		}
		pairs = append(pairs, [2]Run{r, m})
	}
	return pairs, nil
}

// Compare applies the benchmark's rule to every (workload, metric) pairing
// present on both sides: A is the parent, B the change. Runs pair by seed,
// and it is an error for a side to hold a seed the other lacks.
func Compare(defs []Def, a, b []Run) ([]Row, error) {
	byWL := func(rs []Run) map[string][]Run {
		m := map[string][]Run{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	aw, bw := byWL(a), byWL(b)
	var wls []string
	for w := range aw {
		if _, ok := bw[w]; ok {
			wls = append(wls, w)
		}
	}
	sort.Strings(wls)
	var rows []Row
	for _, w := range wls {
		pairs, err := pairUp(w, aw[w], bw[w])
		if err != nil {
			return nil, err
		}
		for _, d := range defs {
			if row, ok := compareOne(d, w, aw[w], bw[w], pairs); ok {
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func values(rs []Run, name string) ([]float64, bool) {
	var xs []float64
	for _, r := range rs {
		v, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		xs = append(xs, v)
	}
	return xs, len(xs) > 0
}

func compareOne(d Def, wl string, a, b []Run, pairs [][2]Run) (Row, bool) {
	av, okA := values(a, d.Name)
	bv, okB := values(b, d.Name)
	if !okA || !okB {
		return Row{}, false
	}
	row := Row{Workload: wl, Metric: d.Name, Unit: d.Unit, A: summarize(av), B: summarize(bv), Pairs: len(pairs)}
	wins := 0
	for _, p := range pairs {
		x, y := p[1].Metrics[d.Name], p[0].Metrics[d.Name]
		if d.better(x, y) {
			wins++
		}
	}
	if len(pairs) > 0 {
		row.WinFrac = float64(wins) / float64(len(pairs))
	}
	switch {
	case d.Exact:
		row.Verdict = Identical
		for _, p := range pairs {
			if p[0].Metrics[d.Name] != p[1].Metrics[d.Name] {
				row.Verdict = Changed
			}
		}
	case d.Bound == 0:
		// No bound, so no regression or unresolved verdict; a gain may
		// still be claimed by the rule.
		row.Verdict = Info
		if claim(d, row) {
			row.Verdict = Win
		}
	default:
		row.Verdict = judge(d, row, av, bv)
	}
	return row, true
}

// claim is the rule for claiming a gain: B wins at least nine tenths of the
// pairs and the medians differ, in B's favour, by more than A's
// interquartile distance.
func claim(d Def, row Row) bool {
	return d.better(row.B.Median, row.A.Median) && row.WinFrac >= 0.9 &&
		math.Abs(row.B.Median-row.A.Median) > row.A.Q3-row.A.Q1
}

// judge applies the bound and the claim rule to a bounded metric.
func judge(d Def, row Row, av, bv []float64) string {
	allBetter := true
	for _, x := range bv {
		for _, y := range av {
			if !d.better(x, y) {
				allBetter = false
			}
		}
	}
	if (row.A.Spread > d.Bound || row.B.Spread > d.Bound) && !allBetter {
		return Unresolved
	}
	delta := row.B.Median - row.A.Median
	if d.Better == "higher" {
		delta = -delta
	}
	// delta > 0 means B is worse.
	if delta > d.Bound*math.Abs(row.A.Median) {
		return Regression
	}
	if claim(d, row) {
		return Win
	}
	return NoChange
}
