package bpred

import (
	"testing"

	"teasim/internal/isa"
)

// BenchmarkPredictTrainLoop measures the full per-branch predictor cost
// (predict + train, occasional recover) — the hot path of the decoupled
// frontend.
func BenchmarkPredictTrainLoop(b *testing.B) {
	p := newTableI()
	in := &isa.Inst{Op: isa.OpBne, Imm: 0x2000}
	rng := uint32(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		taken := rng&7 == 0
		pred := p.Predict(0x1000)
		if (pred.BTBHit && pred.Taken) != taken {
			p.Recover(&pred, in, taken, 0x2000)
		}
		p.Train(&pred, in, taken, 0x2000)
	}
}

// BenchmarkHistoryPush measures speculative history maintenance (one push
// updates every registered folded view).
func BenchmarkHistoryPush(b *testing.B) {
	p := newTableI() // registers all TAGE/ITTAGE/SC folds
	h := &p.Hist
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Push(i&3 == 0)
	}
}

// BenchmarkCheckpointSaveRestore measures flush-recovery cost.
func BenchmarkCheckpointSaveRestore(b *testing.B) {
	p := newTableI()
	h := &p.Hist
	for i := 0; i < 100; i++ {
		h.Push(i&1 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck := h.Save()
		h.Push(true)
		h.Restore(&ck)
	}
}
