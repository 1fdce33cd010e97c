package telemetry

import "strconv"

// EventKind classifies a structured trace event.
type EventKind uint8

// Event kinds.
const (
	// EvRetire is one retired instruction (in program order).
	EvRetire EventKind = iota
	// EvFlush is an execute-time misprediction flush (or decode re-steer).
	EvFlush
	// EvEarlyFlush is a companion-triggered early flush (§IV-F).
	EvEarlyFlush
)

// String returns the event kind's wire name.
func (k EventKind) String() string {
	switch k {
	case EvRetire:
		return "retire"
	case EvFlush:
		return "flush"
	case EvEarlyFlush:
		return "early-flush"
	}
	return "event(" + strconv.Itoa(int(k)) + ")"
}

// MarshalJSON renders the kind as its wire name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, k.String()), nil
}

// Event is one structured trace event. Events passed to a Sink are scratch
// storage owned by the Collector: a sink that retains events beyond the
// call must copy them.
//
// Field applicability by kind (see DESIGN.md "Telemetry event schema"):
//
//   - retire: Seq, PC, Disasm always; Branch/Taken/Target/Mispredict/
//     EarlyFlushed for branches; Mem/Addr for loads and stores.
//   - flush, early-flush: Seq (the flushed branch), Redirect, and the
//     post-flush ROB/RS/FQ occupancies.
type Event struct {
	Cycle uint64    `json:"cycle"`
	Kind  EventKind `json:"kind"`
	Seq   uint64    `json:"seq"`

	// Retire fields.
	PC           uint64 `json:"pc,omitempty"`
	Disasm       string `json:"disasm,omitempty"`
	Branch       bool   `json:"branch,omitempty"`
	Taken        bool   `json:"taken,omitempty"`
	Target       uint64 `json:"target,omitempty"`
	Mispredict   bool   `json:"mispredict,omitempty"`
	EarlyFlushed bool   `json:"early_flushed,omitempty"`
	Mem          bool   `json:"mem,omitempty"`
	Addr         uint64 `json:"addr,omitempty"`

	// Flush fields.
	Redirect uint64 `json:"redirect,omitempty"`
	ROB      int    `json:"rob,omitempty"`
	RS       int    `json:"rs,omitempty"`
	FQ       int    `json:"fq,omitempty"`
}

// Metric is one named registry sample inside an interval.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Interval is one time-series sample, emitted every IntervalPeriod retired
// instructions. All rate fields are computed over the interval (deltas),
// not cumulatively, so plotting them directly gives the per-phase behavior
// end-of-run aggregates hide. Like Event, intervals passed to a Sink are
// scratch storage: copy to retain (including the Metrics slice).
type Interval struct {
	Index   int    `json:"index"`
	Cycle   uint64 `json:"cycle"`   // cycle count at the sample point
	Retired uint64 `json:"retired"` // cumulative retired instructions

	Cycles       uint64  `json:"cycles"`       // cycles in this interval
	Instructions uint64  `json:"instructions"` // instructions in this interval
	IPC          float64 `json:"ipc"`
	MPKI         float64 `json:"mpki"`
	Flushes      uint64  `json:"flushes"`
	EarlyFlushes uint64  `json:"early_flushes"`

	// Companion (TEA) metrics; zero when no companion is attached.
	Coverage          float64 `json:"coverage"`
	Accuracy          float64 `json:"accuracy"`
	BlockCacheHitRate float64 `json:"block_cache_hit_rate"`
	FillBufOccupancy  int     `json:"fill_buf_occupancy"`

	// Metrics carries every registered registry metric at the sample point
	// (cumulative values, registration order).
	Metrics []Metric `json:"metrics,omitempty"`
}
