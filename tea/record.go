package tea

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
)

// MemoKey identifies one memoizable simulation: the workload, the machine
// point (the resolved spec's fingerprint, plus the Config's Mode, which
// labels a preset run's Result), the run budget and the input scale. Two configs that resolve to
// the same machine — a preset and the equivalent -set patches, or a
// hand-edited spec and its patch form — share one key and therefore one
// simulation. The engine memo, persisted records, the result store, fabric
// recovery and the daemon's request coalescing all key on it.
type MemoKey struct {
	Workload string      `json:"workload"`
	Mode     Mode        `json:"mode"`
	Spec     Fingerprint `json:"spec"`
	MaxInstr uint64      `json:"max_instr"`
	Scale    int         `json:"scale"`
}

// MemoKeyOf returns the memo key of one cell. ok is false when the cell must
// not be memoized (Config.Memoizable) or its spec does not resolve; callers
// then simulate directly, which surfaces a resolution error with full
// context.
func MemoKeyOf(workload string, cfg Config) (key MemoKey, ok bool) {
	if !cfg.Memoizable() {
		return MemoKey{}, false
	}
	fp, err := cfg.SpecFingerprint()
	if err != nil {
		return MemoKey{}, false
	}
	return MemoKey{workload, cfg.Mode.orBaseline(), Fingerprint(fp), cfg.MaxInstructions, cfg.Scale}, true
}

// String renders the key's canonical address.
func (k MemoKey) String() string {
	var buf [64]byte
	return string(k.AppendTo(buf[:0]))
}

// AppendTo appends the key's canonical address,
// "workload/mode@fingerprint/n<budget>/s<scale>", to b and returns the
// extended buffer. The store hashes these bytes to pick a key's shard.
func (k MemoKey) AppendTo(b []byte) []byte {
	b = append(b, k.Workload...)
	b = append(b, '/')
	b = append(b, k.Mode.String()...)
	b = append(b, '@')
	b = k.Spec.appendTo(b)
	b = append(b, "/n"...)
	b = strconv.AppendUint(b, k.MaxInstr, 10)
	b = append(b, "/s"...)
	return strconv.AppendInt(b, int64(k.Scale), 10)
}

// Fingerprint is a resolved machine spec's fingerprint. It prints and
// persists as fixed-width hex, the form Result.SpecHash carries.
type Fingerprint uint64

// String returns the fingerprint as 16 hex digits.
func (f Fingerprint) String() string {
	var buf [16]byte
	return string(f.appendTo(buf[:0]))
}

// appendTo appends the fingerprint as 16 lower-case hex digits.
func (f Fingerprint) appendTo(b []byte) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[f>>shift&0xf])
	}
	return b
}

// MarshalText renders the fingerprint as 16 hex digits.
func (f Fingerprint) MarshalText() ([]byte, error) { return f.appendTo(nil), nil }

// UnmarshalText parses a hex fingerprint.
func (f *Fingerprint) UnmarshalText(b []byte) error {
	v, err := strconv.ParseUint(string(b), 16, 64)
	if err != nil {
		return fmt.Errorf("tea: spec fingerprint %q: %w", b, err)
	}
	*f = Fingerprint(v)
	return nil
}

// JournalRecord is one completed experiment cell as it is persisted: its
// memo key and full Result, one JSON line each (tea/store frames and writes
// them). The checksum makes a torn or bit-rotted line detectable rather
// than silently poisoning a resumed run.
type JournalRecord struct {
	V int `json:"v"` // record format version (currently 1)
	MemoKey
	Result Result `json:"result"`
	// Checksum is the FNV-1a 64 hash (hex) of the record's canonical JSON
	// with this field empty.
	Checksum string `json:"checksum,omitempty"`
}

// journalVersion is the record format written by Seal.
const journalVersion = 1

// recordChecksum computes the checksum over the record with its Checksum
// field cleared. json.Marshal of a struct is deterministic (declaration
// order), so the byte stream is stable across writes and reads.
func recordChecksum(rec JournalRecord) (string, error) {
	rec.Checksum = ""
	b, err := json.Marshal(rec)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(b)
	return strconv.FormatUint(h.Sum64(), 16), nil
}

// Seal returns the record with its format version and checksum filled,
// ready to be persisted.
func (r JournalRecord) Seal() (JournalRecord, error) {
	r.V = journalVersion
	sum, err := recordChecksum(r)
	if err != nil {
		return JournalRecord{}, err
	}
	r.Checksum = sum
	return r, nil
}

// Verify reports whether the record is intact: the known format version and
// a checksum matching its contents. Torn or bit-rotted records verify false.
func (r JournalRecord) Verify() bool {
	if r.V != journalVersion || r.Checksum == "" {
		return false
	}
	sum, err := recordChecksum(r)
	return err == nil && sum == r.Checksum
}
