package tea_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"sort"
	"strings"
	"testing"

	"teasim/tea"
	"teasim/tea/spec"
)

// The golden corpus pins the simulator's output cell by cell. Each line of
// testdata/corpus.jsonl is one workload × machine point at corpusBudget
// instructions: its full Result and the SHA-256 of the run's trace events
// (every retire with its cycle, seq and PC, and every flush and early flush
// with its ROB/RS/FQ occupancy). Interval samples are left out of the
// digest: they carry the whole metrics registry, so a new observational
// metric would otherwise move every line.
//
// The corpus is the reference for every hot-path mechanism of the core (the
// scheduler, the decoded-block fetch path, history recovery): a change that
// claims to be a pure speed-up must leave every line byte-identical.
// Regenerate with `go test ./tea -run TestGoldenCorpus -update`, and only
// together with a stated change to the simulated model.

const (
	corpusPath   = "testdata/corpus.jsonl"
	corpusBudget = 20_000
)

// corpusMachine is one machine point of the corpus: a registered preset
// plus optional spec patches.
type corpusMachine struct {
	preset string
	set    []string
}

// label names the machine in subtest names and failure messages.
func (m corpusMachine) label() string {
	if len(m.set) == 0 {
		return m.preset
	}
	return m.preset + "[" + strings.Join(m.set, ",") + "]"
}

// corpusMachines lists every registered preset, then TEA with its
// companion demoted below the main thread at select: no preset sets
// companion.no_priority, so only this cell reaches that issue order.
func corpusMachines() []corpusMachine {
	var ms []corpusMachine
	for _, p := range spec.Presets() {
		ms = append(ms, corpusMachine{preset: p})
	}
	return append(ms, corpusMachine{preset: "tea", set: []string{"companion.no_priority=true"}})
}

// config builds the cell's run configuration: the preset by name, as every
// experiment runs it.
func (m corpusMachine) config() tea.Config {
	return tea.Config{Mode: tea.Mode(m.preset), MaxInstructions: corpusBudget, Set: m.set}
}

// corpusLine is the on-disk form of one cell.
type corpusLine struct {
	Workload string     `json:"workload"`
	Machine  string     `json:"machine"`
	Set      []string   `json:"set,omitempty"`
	Events   string     `json:"events_sha256"`
	Result   tea.Result `json:"result"`
}

func (l *corpusLine) key() string {
	return l.Workload + "/" + corpusMachine{l.Machine, l.Set}.label()
}

// eventDigest is a trace sink that hashes the JSONL stream's event lines
// and drops its interval lines.
type eventDigest struct {
	h    hash.Hash
	line []byte
}

var eventPrefix = []byte(`{"type":"event"`)

func (d *eventDigest) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			d.line = append(d.line, p...)
			break
		}
		d.line = append(d.line, p[:i+1]...)
		if bytes.HasPrefix(d.line, eventPrefix) {
			d.h.Write(d.line)
		}
		d.line = d.line[:0]
		p = p[i+1:]
	}
	return n, nil
}

// runCorpusCell simulates one cell and renders its corpus line.
func runCorpusCell(workload string, m corpusMachine) ([]byte, error) {
	return renderCorpusLine(workload, m, m.config())
}

// renderCorpusLine runs cfg, a run configuration of machine m, on workload
// and renders the cell's corpus line.
func renderCorpusLine(workload string, m corpusMachine, cfg tea.Config) ([]byte, error) {
	d := &eventDigest{h: sha256.New()}
	cfg.TraceTo = d
	res, err := tea.Run(workload, cfg)
	if err != nil {
		return nil, err
	}
	if len(d.line) != 0 {
		return nil, fmt.Errorf("trace ended mid-line: %q", d.line)
	}
	return json.Marshal(corpusLine{
		Workload: workload,
		Machine:  m.preset,
		Set:      m.set,
		Events:   hex.EncodeToString(d.h.Sum(nil)),
		Result:   res,
	})
}

// readCorpus loads the committed corpus, keyed by cell.
func readCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open(corpusPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./tea -run TestGoldenCorpus -update` to create)", err)
	}
	defer f.Close()
	want := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var l corpusLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("%s: %v", corpusPath, err)
		}
		want[l.key()] = bytes.Clone(sc.Bytes())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// corpusDiff names what moved between two lines of the same cell: the
// event digest and every Result field whose value changed.
func corpusDiff(got, want []byte) string {
	var g, w struct {
		Events string                     `json:"events_sha256"`
		Result map[string]json.RawMessage `json:"result"`
	}
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil {
		return fmt.Sprintf("got  %s\nwant %s", got, want)
	}
	var moved []string
	if g.Events != w.Events {
		moved = append(moved, "events digest")
	}
	keys := map[string]bool{}
	for k := range g.Result {
		keys[k] = true
	}
	for k := range w.Result {
		keys[k] = true
	}
	var fields []string
	for k := range keys {
		if !bytes.Equal(g.Result[k], w.Result[k]) {
			fields = append(fields, k)
		}
	}
	sort.Strings(fields)
	for _, k := range fields {
		moved = append(moved, fmt.Sprintf("%s %s -> %s", k, w.Result[k], g.Result[k]))
	}
	return strings.Join(moved, "; ")
}

// TestGoldenCorpus runs every corpus cell and compares its line with
// testdata/corpus.jsonl; -update rewrites the file once every cell has run.
func TestGoldenCorpus(t *testing.T) {
	var want map[string][]byte
	if !*update {
		want = readCorpus(t)
	}
	workloads := tea.Workloads()
	machines := corpusMachines()
	lines := make([][]byte, len(workloads)*len(machines))
	// Cleanup runs after every parallel subtest has finished.
	t.Cleanup(func() {
		if !*update {
			if len(want) != len(lines) {
				t.Errorf("%s holds %d cells, the corpus defines %d", corpusPath, len(want), len(lines))
			}
			return
		}
		var buf bytes.Buffer
		for _, l := range lines {
			if l == nil {
				t.Errorf("a cell failed; %s not written", corpusPath)
				return
			}
			buf.Write(l)
			buf.WriteByte('\n')
		}
		if err := os.WriteFile(corpusPath, buf.Bytes(), 0o644); err != nil {
			t.Error(err)
		}
	})
	for wi, w := range workloads {
		for mi, m := range machines {
			i := wi*len(machines) + mi
			key := w + "/" + m.label()
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				got, err := runCorpusCell(w, m)
				if err != nil {
					t.Fatal(err)
				}
				lines[i] = got
				if *update {
					return
				}
				exp, ok := want[key]
				if !ok {
					t.Fatalf("cell missing from %s", corpusPath)
				}
				if !bytes.Equal(got, exp) {
					t.Errorf("cell changed: %s", corpusDiff(got, exp))
				}
			})
		}
	}
}
