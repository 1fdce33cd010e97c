package tea

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// memStore is an in-memory CellStore whose Put fails with putErr when it is
// set.
type memStore struct {
	mu     sync.Mutex
	recs   map[MemoKey]Result
	putErr error
}

func (s *memStore) Get(k MemoKey) (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.recs[k]
	return res, ok
}

func (s *memStore) Put(rec JournalRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.putErr != nil {
		return s.putErr
	}
	if s.recs == nil {
		s.recs = make(map[MemoKey]Result)
	}
	s.recs[rec.MemoKey] = rec.Result
	return nil
}

// slowFirstGet is a memStore whose first Get decides its answer, then
// returns it only once released is closed.
type slowFirstGet struct {
	memStore
	gets     atomic.Int32
	entered  chan struct{} // closed when the first Get has decided
	released chan struct{}
}

func (s *slowFirstGet) Get(k MemoKey) (Result, bool) {
	res, ok := s.memStore.Get(k)
	if s.gets.Add(1) == 1 {
		close(s.entered)
		<-s.released
	}
	return res, ok
}

// waitCtx is a context that reports the first time a job waits on it. An
// engine without WithPolicy timers waits on a job's context only while the
// job rides another engine's flight, so the report means the job has
// joined that flight.
type waitCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitCtx() *waitCtx {
	return &waitCtx{Context: context.Background(), waiting: make(chan struct{})}
}

func (c *waitCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestCellCacheRechecksStoreInFlight forces the interleaving that simulated
// a cell twice: engine A's store Get misses, but returns only after engine
// B's flight for the same cell has stored it and ended. Taking the lead, A
// must find the cell in the store instead of simulating it again.
func TestCellCacheRechecksStoreInFlight(t *testing.T) {
	st := &slowFirstGet{entered: make(chan struct{}), released: make(chan struct{})}
	cache := NewCellCache(st)
	var runs atomic.Int32
	run := func(ctx context.Context, w string, c Config) (Result, error) {
		runs.Add(1)
		return Result{Workload: w, Mode: c.Mode, Cycles: 42}, nil
	}
	jobs := []Job{{Workload: "mcf", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}}}
	a := NewEngine(1, WithCellCache(cache), WithRunFunc(run))
	b := NewEngine(1, WithCellCache(cache), WithRunFunc(run))

	var resA []Result
	var errA error
	done := make(chan struct{})
	go func() {
		defer close(done)
		resA, errA = a.Map(jobs)
	}()
	<-st.entered // A's Get has missed
	resB, err := b.Map(jobs)
	if err != nil {
		t.Fatal(err)
	}
	close(st.released) // B's flight has stored the cell and ended
	<-done
	if errA != nil {
		t.Fatal(errA)
	}

	if n := runs.Load(); n != 1 {
		t.Errorf("cell simulated %d times, want once", n)
	}
	if ms := a.MemoStats(); ms.StoreHits != 1 || ms.Simulated != 0 {
		t.Errorf("engine A: %+v, want the cell as a store hit", ms)
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Errorf("results differ: %+v vs %+v", resA, resB)
	}
}

// TestCellCachePutFailure: a store write that fails is the cell's error.
// The leading engine's Map returns it, the engine riding its flight gets
// the same error, so does a later job for the cell in the leading engine,
// and a partial experiment quarantines the cell as an ERROR row.
func TestCellCachePutFailure(t *testing.T) {
	errDisk := errors.New("disk full")
	cache := NewCellCache(&memStore{putErr: errDisk})
	jobs := []Job{{Workload: "mcf", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}}}

	started := make(chan struct{})
	joined := newWaitCtx()
	leader := NewEngine(1, WithCellCache(cache), WithRunFunc(func(ctx context.Context, w string, c Config) (Result, error) {
		close(started)
		<-joined.waiting // the other engine rides this flight
		return Result{Workload: w, Mode: c.Mode, Cycles: 42}, nil
	}))
	waiter := NewEngine(1, WithCellCache(cache), WithRunFunc(func(ctx context.Context, w string, c Config) (Result, error) {
		t.Error("the waiting engine simulated the cell")
		return Result{}, nil
	}))

	var leadErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, leadErr = leader.Map(jobs)
	}()
	<-started
	_, waitErr := waiter.MapContext(joined, jobs)
	<-done
	if !errors.Is(leadErr, errDisk) {
		t.Errorf("leader: Map error %v, want the failed write", leadErr)
	}
	if !errors.Is(waitErr, errDisk) || waiter.MemoStats().Coalesced != 1 {
		t.Errorf("waiter: Map error %v with %+v, want the failed write, coalesced", waitErr, waiter.MemoStats())
	}
	if _, err := leader.Map(jobs); !errors.Is(err, errDisk) {
		t.Errorf("later job: Map error %v, want the failed write", err)
	}
	if ms := leader.MemoStats(); ms.Simulated != 1 || ms.Hits != 1 {
		t.Errorf("leader: %+v, want one simulation and the later job a memo hit", ms)
	}

	eng := NewEngine(1, WithCellCache(cache), WithRunFunc(func(ctx context.Context, w string, c Config) (Result, error) {
		return Result{Workload: w, Mode: c.Mode, Cycles: 42, Instructions: 1000}, nil
	}))
	rep, err := RunExperiment(context.Background(), "fig6", ExpOptions{
		Workloads: []string{"mcf"}, MaxInstructions: 1000, Partial: true, Engine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := rep.Write(&csv, FormatCSV); err != nil {
		t.Fatal(err)
	}
	if rep.ErrorRows() != 1 || !strings.Contains(csv.String(), "ERROR: "+errDisk.Error()) {
		t.Errorf("partial fig6: %d error rows, want its cell as one naming the failed write:\n%s", rep.ErrorRows(), csv.String())
	}
}
