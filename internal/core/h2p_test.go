package core

import "testing"

// newH2P builds the H2P table cfg describes.
func newH2P(cfg *Config) *H2PTable {
	t := NewH2PTable(cfg.H2PSets, cfg.H2PWays, cfg.H2PMax, cfg.H2PThreshold)
	return &t
}

func TestH2PPromotionAndDecay(t *testing.T) {
	cfg := DefaultConfig()
	h := newH2P(&cfg)
	pc := uint64(0x1000)
	if h.IsH2P(pc) {
		t.Fatal("cold branch marked H2P")
	}
	h.RecordMispredict(pc) // ctr=1: not yet above threshold
	if h.IsH2P(pc) {
		t.Fatal("one misprediction should not mark H2P")
	}
	h.RecordMispredict(pc) // ctr=2 > 1
	if !h.IsH2P(pc) {
		t.Fatal("branch should be H2P after two mispredictions")
	}
	// Decay pulls it back below threshold.
	h.Decay()
	if h.IsH2P(pc) {
		t.Fatal("H2P should clear after decay to ctr=1")
	}
	h.RecordMispredict(pc)
	if !h.IsH2P(pc) {
		t.Fatal("H2P should re-arm on next misprediction")
	}
}

func TestH2PSaturation(t *testing.T) {
	cfg := DefaultConfig()
	h := newH2P(&cfg)
	pc := uint64(0x2000)
	for i := 0; i < 100; i++ {
		h.RecordMispredict(pc)
	}
	// Saturated at 7: needs 7 decays to fully clear.
	for i := 0; i < 6; i++ {
		h.Decay()
	}
	if !h.IsH2P(pc) && cfg.H2PThreshold == 1 {
		// ctr = 1 after 6 decays from 7: not H2P (threshold 1 means >1).
	}
	h.Decay()
	if h.IsH2P(pc) {
		t.Fatal("should not be H2P after full decay")
	}
}

func TestH2PReplacementPrefersZeroCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.H2PSets, cfg.H2PWays = 1, 2
	h := newH2P(&cfg)
	h.RecordMispredict(0x100)
	h.RecordMispredict(0x100) // strong entry
	h.RecordMispredict(0x200)
	h.Decay()                 // 0x200 drops to 0
	h.RecordMispredict(0x300) // must evict 0x200, not 0x100
	if h.find(0x100) == nil {
		t.Fatal("strong entry evicted over zero-counter entry")
	}
	if h.find(0x200) != nil {
		t.Fatal("zero-counter entry survived")
	}
	if h.find(0x300) == nil {
		t.Fatal("new entry not inserted")
	}
}

func TestH2PCount(t *testing.T) {
	cfg := DefaultConfig()
	h := newH2P(&cfg)
	for pc := uint64(0); pc < 10; pc++ {
		h.RecordMispredict(0x1000 + pc*4)
		h.RecordMispredict(0x1000 + pc*4)
	}
	if got := h.Count(); got != 10 {
		t.Fatalf("Count = %d", got)
	}
}
