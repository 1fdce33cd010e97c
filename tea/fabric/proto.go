// Package fabric scales the experiment engine across worker processes: a
// Coordinator partitions submitted cells into shards, dispatches them to a
// pool of `teaworker` processes over a checksummed JSONL protocol on
// stdin/stdout, and reassembles the results so a fabric-backed run is
// byte-identical to a single-process one. Robustness is the point of the
// layer, not an afterthought: workers are expected to crash (SIGKILL, OOM,
// nonzero exit), hang, and tear journal writes, and the coordinator's job is
// to notice (per-shard heartbeats, a no-progress watchdog), recover what the
// dead worker already journaled, requeue the rest onto surviving workers
// under exponential backoff, quarantine cells that keep killing workers, and
// degrade to in-process execution when the pool collapses entirely.
//
// The coordinator plugs in below the engine's memoization/journaling layer
// as a tea.RunFunc (Coordinator.RunFunc with tea.WithRunFunc), so every
// engine feature — memo cache, resume journals, job policy, partial-failure
// quarantine rows — composes with remote execution unchanged. See DESIGN.md
// §16 for the protocol and the requeue/quarantine state machine.
package fabric

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"sync"

	"teasim/tea"
	"teasim/tea/spec"
)

// Frame types. Coordinator → worker: shard. Worker → coordinator: hello
// (once, at startup), hb (per running cell, periodic), result (per cell),
// done (per shard).
const (
	frameHello  = "hello"
	frameShard  = "shard"
	frameHB     = "hb"
	frameResult = "result"
	frameDone   = "done"
)

// Frame is one line of the coordinator↔worker protocol: single-line JSON,
// FNV-1a checksummed like a JournalRecord, so a torn or corrupted pipe read
// is detected instead of silently mislabeling a result. Unknown frame types
// are skipped by both sides, leaving room to extend the protocol.
type Frame struct {
	T     string     `json:"t"`
	Shard int        `json:"shard,omitempty"` // shard id (shard, done)
	ID    int        `json:"id,omitempty"`    // cell id (hb, result)
	Cells []WireCell `json:"cells,omitempty"` // shard payload

	// Heartbeat payload (hb): the worker-local simulation heartbeat. Beats
	// must advance for the coordinator to count progress — a wedged cell's
	// hb frames keep arriving with a frozen count and are rightly ignored.
	Beats uint64 `json:"beats,omitempty"`
	Cycle uint64 `json:"cycle,omitempty"`

	// Result payload (result): exactly one of Res and Err.
	Res *tea.Result `json:"res,omitempty"`
	Err string      `json:"err,omitempty"`

	// Sum is the FNV-1a 64 hash (hex) of the frame's JSON with this field
	// empty.
	Sum string `json:"sum,omitempty"`
}

// frameChecksum hashes the frame with its Sum cleared. json.Marshal of a
// struct is deterministic (declaration order), so the byte stream is stable
// between the sealing and verifying side.
func frameChecksum(f Frame) (string, error) {
	f.Sum = ""
	b, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(b)
	return strconv.FormatUint(h.Sum64(), 16), nil
}

// seal fills the frame's checksum.
func (f Frame) seal() (Frame, error) {
	sum, err := frameChecksum(f)
	if err != nil {
		return Frame{}, err
	}
	f.Sum = sum
	return f, nil
}

// verify reports whether the frame's checksum matches its contents.
func (f Frame) verify() bool {
	if f.Sum == "" {
		return false
	}
	sum, err := frameChecksum(f)
	return err == nil && sum == f.Sum
}

// frameWriter serializes sealed frames onto one stream. The mutex matters on
// the worker side, where heartbeat-sender goroutines interleave with result
// frames on the same stdout.
type frameWriter struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

// send seals and writes one frame as a single line.
func (fw *frameWriter) send(f Frame) error {
	f, err := f.seal()
	if err != nil {
		return fmt.Errorf("fabric: seal frame: %w", err)
	}
	line, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("fabric: marshal frame: %w", err)
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.buf = append(fw.buf[:0], line...)
	fw.buf = append(fw.buf, '\n')
	_, err = fw.w.Write(fw.buf)
	return err
}

// frameReader parses frames off one stream, rejecting corrupt lines.
type frameReader struct {
	sc *bufio.Scanner
}

func newFrameReader(r io.Reader) *frameReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &frameReader{sc: sc}
}

// next returns the next intact frame, io.EOF at clean end of stream, or an
// error for a read failure or a corrupt frame (the caller treats a corrupt
// frame from a worker as that worker failing).
func (fr *frameReader) next() (Frame, error) {
	for fr.sc.Scan() {
		line := fr.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var f Frame
		if err := json.Unmarshal(line, &f); err != nil {
			return Frame{}, fmt.Errorf("fabric: corrupt frame: %w", err)
		}
		if !f.verify() {
			return Frame{}, fmt.Errorf("fabric: frame checksum mismatch")
		}
		return f, nil
	}
	if err := fr.sc.Err(); err != nil {
		return Frame{}, err
	}
	return Frame{}, io.EOF
}

// WireCell is one experiment cell in flight: the coordinator-assigned id the
// worker echoes on hb and result frames, plus the cell's identity.
type WireCell struct {
	ID       int        `json:"id"`
	Workload string     `json:"workload"`
	Cfg      WireConfig `json:"cfg"`
}

// WireConfig is the serializable subset of tea.Config — exactly the fields a
// memoizable run can carry. The Config is sent faithfully (the preset name,
// the custom spec if any, patches) rather than pre-resolved to a spec,
// because the memo key and Result.Mode carry the preset name: a wide16 or
// ldbp cell resolved to a bare spec would come back keyed as another cell
// and labeled by its companion kind. A preset cell therefore sends no spec.
// Non-memoizable configs (telemetry, co-sim, paranoia, fast-path ablations)
// never cross the wire; the coordinator runs those through its fallback.
type WireConfig struct {
	Mode tea.Mode        `json:"mode"`
	Spec json.RawMessage `json:"spec,omitempty"` // canonical spec JSON, when Config.Spec != nil
	Set  []string        `json:"set,omitempty"`

	MaxInstr uint64 `json:"max_instr,omitempty"`
	Scale    int    `json:"scale,omitempty"`
}

// EncodeConfig serializes a memoizable config for the wire.
func EncodeConfig(cfg tea.Config) (WireConfig, error) {
	if !cfg.Memoizable() {
		return WireConfig{}, fmt.Errorf("fabric: config is not memoizable, cannot be dispatched remotely")
	}
	wc := WireConfig{
		Mode:     cfg.Mode,
		Set:      cfg.Set,
		MaxInstr: cfg.MaxInstructions,
		Scale:    cfg.Scale,
	}
	if cfg.Spec != nil {
		wc.Spec = cfg.Spec.Canonical()
	}
	return wc, nil
}

// DecodeConfig reconstructs the config on the worker side. The round trip
// preserves the resolved spec fingerprint (the memo/journal key) and the
// mode label (pinned by TestWireConfigRoundTrip).
func DecodeConfig(wc WireConfig) (tea.Config, error) {
	cfg := tea.Config{
		Mode:            wc.Mode,
		Set:             wc.Set,
		MaxInstructions: wc.MaxInstr,
		Scale:           wc.Scale,
	}
	if len(wc.Spec) > 0 {
		s, err := spec.Parse(wc.Spec)
		if err != nil {
			return tea.Config{}, fmt.Errorf("fabric: decode cell spec: %w", err)
		}
		cfg.Spec = &s
	}
	return cfg, nil
}
