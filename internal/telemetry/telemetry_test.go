package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRegistryMetrics(t *testing.T) {
	r := NewRegistry()
	occ := 42.0
	r.GaugeFunc("fn", func() float64 { return occ })

	h := r.Histogram("saved", 10, 100)
	if r.Histogram("saved") != h {
		t.Fatal("re-registration must return the same histogram")
	}
	for _, v := range []float64{5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 555 {
		t.Fatalf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	var counts []uint64
	h.Buckets(func(_ float64, _ bool, n uint64) { counts = append(counts, n) })
	if len(counts) != 3 || counts[0] != 1 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("bucket counts = %v, want [1 1 1]", counts)
	}

	r.GaugeFunc("later", func() float64 { return 7 })
	occ = 43 // callbacks are sampled at Visit, not at registration

	var names []string
	var vals []float64
	r.Visit(func(n string, v float64) { names = append(names, n); vals = append(vals, v) })
	want := []string{"fn", "saved", "later"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("visit order %v, want %v (registration order)", names, want)
	}
	if vals[0] != 43 || vals[1] != 185 || vals[2] != 7 {
		t.Fatalf("visit values %v", vals)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic on kind conflict")
		}
	}()
	r := NewRegistry()
	r.Histogram("x")
	r.GaugeFunc("x", func() float64 { return 0 })
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Event(&Event{Cycle: 7, Kind: EvRetire, Seq: 1, PC: 0x40, Disasm: "add r1, r2, r3"})
	s.Event(&Event{Cycle: 9, Kind: EvEarlyFlush, Seq: 2, Redirect: 0x80, ROB: 3})
	s.Interval(&Interval{Index: 0, Cycle: 100, Retired: 50, IPC: 0.5,
		Metrics: []Metric{{Name: "m", Value: 1}}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if ev["type"] != "event" || ev["kind"] != "early-flush" || ev["redirect"] != float64(0x80) {
		t.Fatalf("unexpected event line: %v", ev)
	}
	var iv map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &iv); err != nil {
		t.Fatalf("line 3 is not JSON: %v", err)
	}
	if iv["type"] != "interval" || iv["ipc"] != 0.5 {
		t.Fatalf("unexpected interval line: %v", iv)
	}
}

func TestRingSinkWraparound(t *testing.T) {
	s := NewRing(3)
	for i := uint64(1); i <= 5; i++ {
		s.Event(&Event{Cycle: i})
	}
	evs := s.Events()
	if len(evs) != 3 || evs[0].Cycle != 3 || evs[2].Cycle != 5 {
		t.Fatalf("ring events = %+v, want cycles 3..5 oldest-first", evs)
	}
	// Interval deep copy: mutating the emitted scratch must not leak in.
	iv := Interval{Index: 1, Metrics: []Metric{{Name: "a", Value: 1}}}
	s.Interval(&iv)
	iv.Metrics[0].Value = 99
	if got := s.Intervals()[0].Metrics[0].Value; got != 1 {
		t.Fatalf("ring interval aliases caller storage (got %v)", got)
	}
}

func TestTextSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	s := NewText(&buf)
	s.Event(&Event{Cycle: 12, Kind: EvRetire, Seq: 3, PC: 0x40, Disasm: "beq r1, r0, +2",
		Branch: true, Taken: true, Target: 0x48, Mispredict: true})
	s.Event(&Event{Cycle: 13, Kind: EvRetire, Seq: 4, PC: 0x44, Disasm: "ld r2, 0(r1)",
		Mem: true, Addr: 0x1000})
	s.Event(&Event{Cycle: 14, Kind: EvFlush, Seq: 3, Redirect: 0x48, ROB: 1, RS: 2, FQ: 3})
	s.Event(&Event{Cycle: 15, Kind: EvEarlyFlush, Seq: 9, Redirect: 0x50})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"[      12] retire seq=3 pc=0x40 beq r1, r0, +2 T->0x48 MISPRED\n",
		"[      13] retire seq=4 pc=0x44 ld r2, 0(r1) addr=0x1000\n",
		"[      14] flush at seq=3 redirect=0x48 (rob=1 rs=2 fq=3)\n",
		"[      15] early-flush at seq=9 redirect=0x50 (rob=0 rs=0 fq=0)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMultiSink(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	m := Multi(nil, a, b)
	m.Event(&Event{Cycle: 1})
	m.Interval(&Interval{Index: 0})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatal("multi sink did not fan out events")
	}
	if len(a.Intervals()) != 1 || len(b.Intervals()) != 1 {
		t.Fatal("multi sink did not fan out intervals")
	}
	if Multi(a) != Sink(a) {
		t.Fatal("single-sink Multi should return the sink itself")
	}
}

func TestCollectorTraceWindow(t *testing.T) {
	ring := NewRing(16)
	c := NewCollector(Config{Sink: ring, TraceStart: 10, TraceEnd: 20})
	for _, cyc := range []uint64{5, 10, 20, 21} {
		if c.TraceOn(cyc) {
			c.Emit(Event{Cycle: cyc, Kind: EvRetire})
		}
	}
	evs := ring.Events()
	if len(evs) != 2 || evs[0].Cycle != 10 || evs[1].Cycle != 20 {
		t.Fatalf("window produced %+v, want cycles 10 and 20", evs)
	}
}

func TestCollectorIntervalCursor(t *testing.T) {
	ring := NewRing(0)
	c := NewCollector(Config{Sink: ring, IntervalPeriod: 100})
	c.Registry().GaugeFunc("n", func() float64 { return 7 })
	if c.IntervalDue(99) {
		t.Fatal("interval due before the period elapsed")
	}
	if !c.IntervalDue(100) {
		t.Fatal("interval not due at the boundary")
	}
	iv := c.BeginInterval(500, 100)
	iv.IPC = 2.0
	c.EmitInterval()
	if c.IntervalDue(150) {
		t.Fatal("cursor did not advance")
	}
	got := ring.Intervals()
	if len(got) != 1 || got[0].IPC != 2.0 || got[0].Index != 0 {
		t.Fatalf("intervals = %+v", got)
	}
	if len(got[0].Metrics) != 1 || got[0].Metrics[0] != (Metric{Name: "n", Value: 7}) {
		t.Fatalf("registry snapshot = %+v", got[0].Metrics)
	}
}

// TestNullPathAllocationFree is the telemetry-side half of the hot-path
// guarantee: emitting events and intervals into a NullSink collector must
// not allocate (BenchmarkCorePerCycle enforces the pipeline side).
func TestNullPathAllocationFree(t *testing.T) {
	c := NewCollector(Config{Sink: NullSink{}, IntervalPeriod: 1})
	c.Registry().GaugeFunc("occ", func() float64 { return 1 })
	c.Registry().Histogram("n", 1)
	// Warm the Metrics backing array.
	c.BeginInterval(0, 0)
	c.EmitInterval()

	retired := uint64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		if c.TraceOn(5) {
			t.Fatal("null sink must disable tracing")
		}
		c.Emit(Event{Cycle: 5}) // stray call: must still be free
		if c.IntervalDue(retired) {
			iv := c.BeginInterval(retired*3, retired)
			iv.IPC = 0.33
			c.EmitInterval()
		}
		retired++
	})
	if allocs != 0 {
		t.Fatalf("null-sink path allocates %v per emission, want 0", allocs)
	}
}

// TestJSONLSinkBuffered ensures nothing reaches the writer before Close
// flushes (the sink must be safe to point at an unbuffered file).
func TestJSONLSinkBuffered(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Event(&Event{Cycle: 1})
	if buf.Len() != 0 && buf.Len() >= bufio.NewWriter(nil).Size() {
		t.Skip("bufio flushed early; nothing to assert")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("Close did not flush")
	}
}
