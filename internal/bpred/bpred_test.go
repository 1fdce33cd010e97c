package bpred

import (
	"testing"

	"teasim/internal/isa"
	"teasim/tea/spec"
)

// tableI is the Table I predictor geometry, read from the baseline preset
// the way pipeline.ConfigFromSpec reads it.
func tableI() Config {
	s, err := spec.Preset("baseline")
	if err != nil {
		panic(err)
	}
	p := s.Predictor
	return Config{
		TageTables:   p.TageTables,
		TageHistLens: p.TageHistLens,
		BTBEntries:   p.BTBEntries,
		BTBWays:      p.BTBWays,
		RASEntries:   p.RASEntries,
	}
}

// newTableI builds the Table I predictor.
func newTableI() *Predictor { return NewWithConfig(tableI()) }

// drive runs the predictor protocol sequentially (predict → recover on
// mispredict → train) for a conditional branch outcome stream and returns
// the number of correct predictions. Each element of outcomes is one dynamic
// branch; pcs gives the static PC per element.
func drive(p *Predictor, pcs []uint64, outcomes []bool, targets []uint64) int {
	correct := 0
	for i, taken := range outcomes {
		pc := pcs[i]
		tgt := targets[i]
		pred := p.Predict(pc)
		predTaken := pred.BTBHit && pred.Taken
		predTarget := pred.Target
		ok := predTaken == taken && (!taken || predTarget == tgt)
		if ok {
			correct++
		} else {
			in := &isa.Inst{Op: isa.OpBne, Imm: int64(tgt)}
			p.Recover(&pred, in, taken, tgt)
		}
		in := &isa.Inst{Op: isa.OpBne, Imm: int64(tgt)}
		p.Train(&pred, in, taken, tgt)
	}
	return correct
}

func condStream(n int, pc, tgt uint64, f func(i int) bool) (pcs []uint64, outs []bool, tgts []uint64) {
	for i := 0; i < n; i++ {
		pcs = append(pcs, pc)
		outs = append(outs, f(i))
		tgts = append(tgts, tgt)
	}
	return
}

func accuracyTail(p *Predictor, pcs []uint64, outs []bool, tgts []uint64, warm int) float64 {
	_ = drive(p, pcs[:warm], outs[:warm], tgts[:warm])
	c := drive(p, pcs[warm:], outs[warm:], tgts[warm:])
	return float64(c) / float64(len(outs)-warm)
}

func TestTAGELearnsAlternating(t *testing.T) {
	p := newTableI()
	pcs, outs, tgts := condStream(2000, 0x1000, 0x2000, func(i int) bool { return i%2 == 0 })
	if acc := accuracyTail(p, pcs, outs, tgts, 500); acc < 0.99 {
		t.Fatalf("alternating accuracy = %.3f", acc)
	}
}

func TestTAGELearnsPeriodicPattern(t *testing.T) {
	p := newTableI()
	pcs, outs, tgts := condStream(4000, 0x1000, 0x2000, func(i int) bool { return i%7 == 3 })
	if acc := accuracyTail(p, pcs, outs, tgts, 1500); acc < 0.98 {
		t.Fatalf("period-7 accuracy = %.3f", acc)
	}
}

func TestTAGELearnsCorrelatedBranches(t *testing.T) {
	// Branch B's outcome equals branch A's previous outcome: requires
	// global history, impossible for a bimodal predictor.
	p := newTableI()
	var pcs []uint64
	var outs []bool
	var tgts []uint64
	rng := uint32(12345)
	prevA := false
	for i := 0; i < 4000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		a := rng&1 == 1
		pcs = append(pcs, 0x1000, 0x1100)
		outs = append(outs, a, prevA)
		tgts = append(tgts, 0x2000, 0x2100)
		prevA = a
	}
	// Accuracy on the correlated branch alone should be high; overall
	// accuracy is bounded by the random branch (~50%), so measure pairs.
	warm := 2000
	drive(p, pcs[:warm], outs[:warm], tgts[:warm])
	correctB, totalB := 0, 0
	for i := warm; i+1 < len(outs); i += 2 {
		drive(p, pcs[i:i+1], outs[i:i+1], tgts[i:i+1]) // branch A
		predB := p.Predict(pcs[i+1])
		takenB := predB.BTBHit && predB.Taken
		in := &isa.Inst{Op: isa.OpBne, Imm: int64(tgts[i+1])}
		if takenB == outs[i+1] {
			correctB++
		} else {
			p.Recover(&predB, in, outs[i+1], tgts[i+1])
		}
		p.Train(&predB, in, outs[i+1], tgts[i+1])
		totalB++
	}
	acc := float64(correctB) / float64(totalB)
	if acc < 0.95 {
		t.Fatalf("correlated branch accuracy = %.3f", acc)
	}
}

func TestLoopPredictorFixedTrip(t *testing.T) {
	p := newTableI()
	// A loop branch taken 39 times then not-taken, repeatedly. TAGE alone
	// handles trips within history length; this trip (40) fits too, so
	// verify overall accuracy is near-perfect after warmup.
	var outs []bool
	for rep := 0; rep < 60; rep++ {
		for i := 0; i < 39; i++ {
			outs = append(outs, true)
		}
		outs = append(outs, false)
	}
	pcs := make([]uint64, len(outs))
	tgts := make([]uint64, len(outs))
	for i := range pcs {
		pcs[i], tgts[i] = 0x1000, 0x0ff0
	}
	warm := 40 * 20
	drive(p, pcs[:warm], outs[:warm], tgts[:warm])
	c := drive(p, pcs[warm:], outs[warm:], tgts[warm:])
	acc := float64(c) / float64(len(outs)-warm)
	if acc < 0.97 {
		t.Fatalf("fixed-trip loop accuracy = %.3f", acc)
	}
}

func TestLongLoopBeyondTAGEHistory(t *testing.T) {
	// Trip count 2000 exceeds every TAGE history length; only the loop
	// predictor can catch the exit.
	p := newTableI()
	trip := 2000
	var outs []bool
	for rep := 0; rep < 8; rep++ {
		for i := 0; i < trip-1; i++ {
			outs = append(outs, true)
		}
		outs = append(outs, false)
	}
	pcs := make([]uint64, len(outs))
	tgts := make([]uint64, len(outs))
	for i := range pcs {
		pcs[i], tgts[i] = 0x1000, 0x0ff0
	}
	warm := trip * 5
	drive(p, pcs[:warm], outs[:warm], tgts[:warm])
	// In the tail, every exit must be predicted (3 exits, trip*3 branches).
	c := drive(p, pcs[warm:], outs[warm:], tgts[warm:])
	miss := (len(outs) - warm) - c
	if miss > 1 {
		t.Fatalf("long-loop tail mispredictions = %d (want <=1)", miss)
	}
}

func TestBTBInsertLookupEvict(t *testing.T) {
	cfg := tableI()
	b := newBTB(cfg.BTBEntries, cfg.BTBWays)
	b.Insert(0x1000, 0x2000, KindCond, false)
	if tgt, kind, _, ok := b.Lookup(0x1000); !ok || tgt != 0x2000 || kind != KindCond {
		t.Fatalf("lookup after insert: %x %v %v", tgt, kind, ok)
	}
	if _, _, _, ok := b.Lookup(0x1004); ok {
		t.Fatal("phantom hit")
	}
	// Fill one set beyond capacity; oldest entry must be evicted.
	ways := uint64(cfg.BTBWays)
	setStride := uint64(cfg.BTBEntries/cfg.BTBWays) * 4 // PCs mapping to the same set
	for i := uint64(1); i <= ways; i++ {
		b.Insert(0x1000+i*setStride, 0x3000, KindDirect, false)
	}
	if _, _, _, ok := b.Lookup(0x1000); ok {
		t.Fatal("LRU eviction did not happen")
	}
	// Most recently inserted must survive.
	if _, _, _, ok := b.Lookup(0x1000 + ways*setStride); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestRASPushPopRestore(t *testing.T) {
	r := newRAS(tableI().RASEntries)
	r.Push(0x100)
	r.Push(0x200)
	ck := r.Save()
	r.Push(0x300)
	if got := r.Pop(); got != 0x300 {
		t.Fatalf("pop = %#x", got)
	}
	if got := r.Pop(); got != 0x200 {
		t.Fatalf("pop = %#x", got)
	}
	r.Restore(ck)
	if got := r.Peek(); got != 0x200 {
		t.Fatalf("after restore peek = %#x", got)
	}
	if got := r.Pop(); got != 0x200 {
		t.Fatalf("after restore pop = %#x", got)
	}
	if got := r.Pop(); got != 0x100 {
		t.Fatalf("after restore pop2 = %#x", got)
	}
}

func TestRASRepairsOverwrite(t *testing.T) {
	r := newRAS(tableI().RASEntries)
	r.Push(0xAAA)
	ck := r.Save()
	// Wrong path pops the entry then pushes garbage over it.
	r.Pop()
	r.Push(0xBBB)
	r.Push(0xCCC)
	r.Restore(ck)
	if got := r.Pop(); got != 0xAAA {
		t.Fatalf("repaired top = %#x", got)
	}
}

func TestHistoryCheckpointEqualsReplay(t *testing.T) {
	// Two histories with identical folds; one takes a wrong-path detour and
	// restores. All folded state must match the straight-line twin.
	mk := func() *History {
		h := &History{}
		h.RegisterFold(8, 6)
		h.RegisterFold(60, 10)
		h.RegisterFold(782, 11)
		h.RegisterFold(1270, 12)
		return h
	}
	a, b := mk(), mk()
	rng := uint32(999)
	bit := func() bool {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return rng&1 == 1
	}
	for i := 0; i < 3000; i++ {
		x := bit()
		a.Push(x)
		b.Push(x)
		if i%97 == 0 {
			ck := a.Save()
			for j := 0; j < i%23+1; j++ {
				a.Push(bit())
				a.PushPath(uint64(j) * 8)
			}
			a.Restore(&ck)
		}
	}
	for i := 0; i < a.NumFolds(); i++ {
		if a.Fold(i) != b.Fold(i) {
			t.Fatalf("fold %d diverged after restore: %#x vs %#x", i, a.Fold(i), b.Fold(i))
		}
	}
	if a.Path() != b.Path() {
		t.Fatalf("path diverged: %#x vs %#x", a.Path(), b.Path())
	}
}

func TestITTAGELearnsHistoryDependentTarget(t *testing.T) {
	p := newTableI()
	// An indirect branch whose target depends on the direction of the
	// preceding conditional branch.
	condPC, indPC := uint64(0x1000), uint64(0x1100)
	tgtA, tgtB := uint64(0x4000), uint64(0x5000)
	rng := uint32(7)
	correct, total := 0, 0
	for i := 0; i < 6000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		dir := rng&1 == 1
		// conditional branch
		cp := p.Predict(condPC)
		inC := &isa.Inst{Op: isa.OpBne, Imm: 0x2000}
		if !(cp.BTBHit && cp.Taken == dir) {
			p.Recover(&cp, inC, dir, 0x2000)
		}
		p.Train(&cp, inC, dir, 0x2000)
		// indirect branch: target selected by dir
		tgt := tgtA
		if dir {
			tgt = tgtB
		}
		ip := p.Predict(indPC)
		inI := &isa.Inst{Op: isa.OpJr, Rs1: isa.R5}
		hitOK := ip.BTBHit && ip.Target == tgt
		if i > 3000 {
			total++
			if hitOK {
				correct++
			}
		}
		if !hitOK {
			p.Recover(&ip, inI, true, tgt)
		}
		p.Train(&ip, inI, true, tgt)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.90 {
		t.Fatalf("indirect accuracy = %.3f", acc)
	}
}

func TestReturnPredictionViaRAS(t *testing.T) {
	p := newTableI()
	callPC, retPC := uint64(0x1000), uint64(0x3000)
	fn := uint64(0x3000 - 0x100)
	_ = fn
	correct, total := 0, 0
	for i := 0; i < 200; i++ {
		// call site alternates between two PCs → two return addresses
		cPC := callPC + uint64(i%2)*0x40
		cp := p.Predict(cPC)
		inC := &isa.Inst{Op: isa.OpCall, Rd: isa.LR, Imm: 0x2000}
		if !(cp.BTBHit && cp.Taken && cp.Target == 0x2000) {
			p.Recover(&cp, inC, true, 0x2000)
		}
		p.Train(&cp, inC, true, 0x2000)

		retTarget := cPC + isa.InstBytes
		rp := p.Predict(retPC)
		inR := &isa.Inst{Op: isa.OpRet, Rs1: isa.LR}
		if i > 20 {
			total++
			if rp.BTBHit && rp.Target == retTarget {
				correct++
			}
		}
		if !(rp.BTBHit && rp.Target == retTarget) {
			p.Recover(&rp, inR, true, retTarget)
		}
		p.Train(&rp, inR, true, retTarget)
	}
	if correct != total {
		t.Fatalf("return accuracy %d/%d", correct, total)
	}
}

func TestPredictorRecoverConsistency(t *testing.T) {
	// After a Recover, the predictor's speculative state must equal the
	// state of a twin predictor that predicted the same branch correctly
	// (i.e., applied the actual outcome directly).
	a, b := newTableI(), newTableI()
	// Warm the BTB so the branch is visible to both.
	warm := func(p *Predictor) {
		pr := p.Predict(0x1000)
		in := &isa.Inst{Op: isa.OpBne, Imm: 0x2000}
		p.Recover(&pr, in, true, 0x2000)
		p.Train(&pr, in, true, 0x2000)
	}
	warm(a)
	warm(b)
	// Now both BTBs know the branch. Make A mispredict (force outcome to the
	// opposite of its prediction), B "predicts" whatever A's actual was.
	pa := a.Predict(0x1000)
	actual := !pa.Taken
	in := &isa.Inst{Op: isa.OpBne, Imm: 0x2000}
	a.Recover(&pa, in, actual, 0x2000)

	pb := b.Predict(0x1000)
	if pb.Taken != actual {
		b.Recover(&pb, in, actual, 0x2000)
	}
	// Histories must now agree.
	if a.Hist.Path() != b.Hist.Path() {
		t.Fatalf("path state diverged")
	}
	for i := 0; i < a.Hist.NumFolds(); i++ {
		if a.Hist.Fold(i) != b.Hist.Fold(i) {
			t.Fatalf("fold %d diverged", i)
		}
	}
}

func TestBTBMissImplicitNotTaken(t *testing.T) {
	p := newTableI()
	pred := p.Predict(0x9000)
	if pred.BTBHit || pred.Taken {
		t.Fatalf("cold predict should be BTB miss: %+v", pred)
	}
	// A never-taken conditional must stay out of the BTB even after Train.
	in := &isa.Inst{Op: isa.OpBne, Imm: 0xA000}
	p.Train(&pred, in, false, 0xA000)
	if _, _, _, ok := p.BTB.Lookup(0x9000); ok {
		t.Fatal("never-taken branch entered BTB")
	}
}

func TestBTBStoresKindAndCallFlag(t *testing.T) {
	cfg := tableI()
	b := newBTB(cfg.BTBEntries, cfg.BTBWays)
	b.Insert(0x100, 0x500, KindIndirect, true)
	tgt, kind, isCall, ok := b.Lookup(0x100)
	if !ok || tgt != 0x500 || kind != KindIndirect || !isCall {
		t.Fatalf("lookup: %#x %v call=%v ok=%v", tgt, kind, isCall, ok)
	}
	// Updating the same PC replaces target and kind in place.
	b.Insert(0x100, 0x600, KindReturn, false)
	tgt, kind, isCall, _ = b.Lookup(0x100)
	if tgt != 0x600 || kind != KindReturn || isCall {
		t.Fatalf("update: %#x %v call=%v", tgt, kind, isCall)
	}
}

func TestKindOfMapping(t *testing.T) {
	cases := []struct {
		op   isa.Op
		kind BranchKind
	}{
		{isa.OpBeq, KindCond}, {isa.OpBlt, KindCond},
		{isa.OpJmp, KindDirect}, {isa.OpCall, KindDirect},
		{isa.OpJr, KindIndirect}, {isa.OpCallR, KindIndirect},
		{isa.OpRet, KindReturn},
	}
	for _, c := range cases {
		in := &isa.Inst{Op: c.op}
		if got := KindOf(in); got != c.kind {
			t.Errorf("KindOf(%v) = %v, want %v", c.op, got, c.kind)
		}
	}
}

func TestRASDeepNesting(t *testing.T) {
	r := newRAS(tableI().RASEntries)
	// Push a call chain deeper than any sensible program nests, within
	// capacity, and unwind it exactly.
	for i := uint64(1); i <= 40; i++ {
		r.Push(i * 0x10)
	}
	for i := uint64(40); i >= 1; i-- {
		if got := r.Pop(); got != i*0x10 {
			t.Fatalf("pop %d = %#x", i, got)
		}
	}
}

func TestHistorySaveIsolation(t *testing.T) {
	// A saved checkpoint is a value: later pushes must not mutate it.
	h := &History{}
	h.RegisterFold(16, 8)
	for i := 0; i < 100; i++ {
		h.Push(i%3 == 0)
	}
	ck := h.Save()
	before := ck
	fold, path := h.Fold(0), h.Path()
	for i := 0; i < 50; i++ {
		h.Push(true)
		h.PushPath(uint64(i) * 4)
	}
	if ck != before {
		t.Fatal("checkpoint mutated by later pushes")
	}
	h.Restore(&ck)
	if h.Fold(0) != fold || h.Path() != path {
		t.Fatal("restore did not apply checkpoint")
	}
}

func TestPredictorBTBMissIsInvisibleToHistory(t *testing.T) {
	// Predicting a BTB-missing branch must leave all speculative state
	// untouched (the BP "does not see" it).
	p := newTableI()
	pathBefore := p.Hist.Path()
	var foldsBefore []uint32
	for i := 0; i < p.Hist.NumFolds(); i++ {
		foldsBefore = append(foldsBefore, p.Hist.Fold(i))
	}
	pred := p.Predict(0xDEAD00)
	if pred.BTBHit {
		t.Fatal("cold PC hit the BTB")
	}
	if p.Hist.Path() != pathBefore {
		t.Fatal("path history changed on BTB miss")
	}
	for i := range foldsBefore {
		if p.Hist.Fold(i) != foldsBefore[i] {
			t.Fatal("folded history changed on BTB miss")
		}
	}
}

// maxConstructAllocs bounds building a Table I predictor: the Predictor
// value, the tagged TAGE tables' backing slice, the BTB's entries and the
// RAS's stack.
const maxConstructAllocs = 4

// builtPredictor keeps each constructed predictor reachable, so the
// compiler cannot elide the allocations the test counts.
var builtPredictor *Predictor

func TestPredictorConstructAllocs(t *testing.T) {
	cfg := tableI()
	n := testing.AllocsPerRun(20, func() { builtPredictor = NewWithConfig(cfg) })
	t.Logf("NewWithConfig(Table I): %.0f allocations", n)
	if n > maxConstructAllocs {
		t.Errorf("NewWithConfig(Table I) makes %.0f allocations, want <= %d", n, maxConstructAllocs)
	}
}
