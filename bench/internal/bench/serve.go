package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"teasim/tea"
	"teasim/tea/serve"
	"teasim/tea/store"

	"teabench/internal/load"
	"teabench/internal/stat"
)

// serve-mix traffic. Arrivals come in blocks of ten: nine store hits and one
// cold request, so every stretch of the stream has the same mix and only the
// order and the kernels depend on the seed.
const (
	serveConns   = 2                     // client connections, ≤ the machine's cores
	hitBudget    = 10_000                // instructions per cell of the pre-warmed fig8 results
	coldBase     = 20_000                // cold request k asks for coldBase+k instructions: never seen before
	nominalRate  = 100.0                 // open-loop arrivals per second, below saturation
	blockSize    = 10                    // arrivals per block, one of them cold
	roundLaps    = 2                     // a nominal segment and a saturate pass each hold this many blocks per kernel
	dupMaxDelay  = 50 * time.Millisecond // a cold request's twin follows within this
	maxRPSCutoff = 250 * time.Millisecond
)

type reqKind int

const (
	hitReq  reqKind = iota // fig8 for 1-3 pre-warmed kernels
	coldReq                // fig6 for one kernel at a fresh budget
	dupReq                 // the cold request's twin
)

type sreq struct {
	id   int
	kind reqKind
	body []byte
	twin *sreq // cold <-> dup
	due  time.Duration

	// Filled in when the response arrives.
	status    int
	resp      []byte
	simulated string
	err       error
	timing    load.Timing
}

type reqIDKey struct{}

// serveMix drives an in-process teasrvd through its HTTP handler.
type serveMix struct {
	e       *env
	kernels []string
	rng     *rand.Rand
	nextID  int
	nextK   int // cold requests issued
	nomRot  int // next cold kernel of the open-loop stream
	satRot  int // next cold kernel of the saturate stream

	dir    string
	st     *store.Store
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
	stats0 serve.Statz  // after the kept set-up
	stats1 *serve.Statz // at shutdown
	warm   []cellRec    // the kept set-up's pre-warm cells

	mu       sync.Mutex
	handler  map[string]time.Duration // request id -> ServeHTTP time
	reqSpan  sync.Map                 // request id -> client span
	hdlSpan  sync.Map                 // request id -> handler span
	first    map[string][]byte        // hit body -> first response body
	segments []passStat               // nominal open-loop segments
	segReqs  [][]*sreq
	passes   []passStat // saturate passes
	passReqs [][]*sreq
}

func newServeMix(e *env) *serveMix {
	return &serveMix{
		e:       e,
		kernels: permute(tea.Workloads(), e.seed, 0),
		rng:     rand.New(rand.NewPCG(uint64(e.seed), 1)),
		handler: map[string]time.Duration{},
		first:   map[string][]byte{},
	}
}

func (s *serveMix) params() map[string]any {
	perRound := roundLaps * len(s.kernels) * (blockSize + 1)
	return map[string]any{
		"engine_workers": 1, "client_connections": serveConns, "hit_instructions_per_cell": hitBudget,
		"cold_instructions_base": coldBase, "nominal_rate_per_s": nominalRate, "cold_share": 1.0 / blockSize,
		"saturate_pass_requests": perRound, "nominal_segment_requests": perRound, "twin_max_delay_ms": ms(dupMaxDelay),
	}
}

func (s *serveMix) setup(ctx context.Context) error {
	s.close()
	dir, err := os.MkdirTemp(s.e.tmp, "store-*")
	if err != nil {
		return err
	}
	s.dir = dir
	if s.st, err = store.Open(dir, store.Options{}); err != nil {
		return err
	}
	sim := s.e.cells.wrap(tea.RunContext, &s.e.rec, "sim", func(ctx context.Context) (string, int) {
		id, _ := ctx.Value(reqIDKey{}).(string)
		if sp, ok := s.hdlSpan.Load(id); ok {
			return "req-" + id, sp.(int)
		}
		return "req-" + id, -1
	})
	s.srv = serve.New(serve.Config{Store: s.st, Workers: 1, RunFunc: sim})
	s.hs = httptest.NewServer(s.wrapHandler(s.srv.Handler()))
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}

	// Pre-warm Fig 8 for every kernel, so hit requests find their cells.
	mark := s.e.cells.len()
	var warm []*sreq
	for _, k := range s.kernels {
		warm = append(warm, s.newReq(hitReq, fig8Body([]string{k})))
	}
	load.ClosedLoop(ctx, len(warm), serveConns, func(i int) { s.send(warm[i]) })
	for _, r := range warm {
		s.e.chk.check(r.err == nil && r.status == http.StatusOK, "pre-warm %s: status %d, %v", r.body, r.status, r.err)
	}
	s.warm = s.e.cells.since(mark)
	s.stats0 = s.srv.Stats()
	return ctx.Err()
}

func (s *serveMix) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Bench-Req")
		parent := -1
		if sp, ok := s.reqSpan.Load(id); ok {
			parent = sp.(int)
		}
		rec := s.e.rec.Load()
		sp := rec.Begin("handler", "req-"+id, parent)
		s.hdlSpan.Store(id, sp)
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		d := time.Since(start)
		rec.End(sp)
		s.mu.Lock()
		s.handler[id] = d
		s.mu.Unlock()
	})
}

func fig8Body(kernels []string) []byte {
	b, _ := json.Marshal(serve.Request{Experiment: "fig8", Workloads: kernels, MaxInstructions: hitBudget})
	return b
}

func (s *serveMix) newReq(kind reqKind, body []byte) *sreq {
	s.nextID++
	return &sreq{id: s.nextID, kind: kind, body: body}
}

// arrivals continues the seeded stream by n blocks. Each cold request is
// followed by its twin; cold kernels take turns through rot, so every lap of
// one block per kernel simulates each kernel once.
func (s *serveMix) arrivals(blocks int, rot *int) []*sreq {
	var out []*sreq
	for b := 0; b < blocks; b++ {
		coldAt := s.rng.IntN(blockSize)
		// The nine hits ask for groups of 1, 2 and 3 kernels three times
		// each, in seeded order, so every block costs the same.
		sizes := []int{1, 2, 3, 1, 2, 3, 1, 2, 3}
		s.rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		for i := 0; i < blockSize; i++ {
			if i != coldAt {
				size := sizes[0]
				sizes = sizes[1:]
				group := make([]string, size)
				for j, p := range s.rng.Perm(len(s.kernels))[:size] {
					group[j] = s.kernels[p]
				}
				out = append(out, s.newReq(hitReq, fig8Body(group)))
				continue
			}
			k := s.nextK
			s.nextK++
			body, _ := json.Marshal(serve.Request{
				Experiment: "fig6", Workloads: []string{s.kernels[*rot%len(s.kernels)]},
				MaxInstructions: uint64(coldBase + k),
			})
			*rot++
			cold := s.newReq(coldReq, body)
			dup := s.newReq(dupReq, body)
			cold.twin, dup.twin = dup, cold
			out = append(out, cold, dup)
		}
	}
	return out
}

// send posts one request and records its response.
func (s *serveMix) send(r *sreq) {
	id := strconv.Itoa(r.id)
	rec := s.e.rec.Load()
	sp := rec.Begin("request", "req-"+id, -1)
	s.reqSpan.Store(id, sp)
	defer rec.End(sp)
	req, err := http.NewRequest(http.MethodPost, s.hs.URL+"/v1/run", bytes.NewReader(r.body))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("X-Bench-Req", id)
	resp, err := s.client.Do(req)
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.resp, r.err = io.ReadAll(resp.Body)
	r.status, r.simulated = resp.StatusCode, resp.Header.Get("X-Tea-Simulated")
}

// verify checks a finished batch of requests.
func (s *serveMix) verify(reqs []*sreq) {
	for _, r := range reqs {
		if r.timing.Skipped {
			continue
		}
		s.e.chk.check(r.err == nil && r.status == http.StatusOK, "request %d: status %d, %v", r.id, r.status, r.err)
		switch r.kind {
		case hitReq:
			s.e.chk.check(r.simulated == "0", "hit request %d simulated %q cells", r.id, r.simulated)
			key := string(r.body)
			if ref, ok := s.first[key]; ok {
				s.e.chk.check(bytes.Equal(ref, r.resp), "hit request %d: body differs from the first response to %s", r.id, key)
			} else {
				s.first[key] = r.resp
			}
		case dupReq:
			if !r.twin.timing.Skipped {
				s.e.chk.check(bytes.Equal(r.resp, r.twin.resp), "cold pair %d/%d: bodies differ", r.twin.id, r.id)
			}
		}
	}
}

// pass runs one saturate pass: the next blocks of the stream from a closed
// loop of serveConns clients.
func (s *serveMix) pass(ctx context.Context) (passStat, error) {
	ps, _, err := s.saturate(ctx)
	return ps, err
}

func (s *serveMix) saturate(ctx context.Context) (passStat, []*sreq, error) {
	reqs := s.arrivals(roundLaps*len(s.kernels), &s.satRot)
	ps, err := s.e.timed(func() error {
		ts := load.ClosedLoop(ctx, len(reqs), serveConns, func(i int) { s.send(reqs[i]) })
		for i := range reqs {
			reqs[i].timing = ts[i]
		}
		return ctx.Err()
	})
	s.verify(reqs)
	return ps, reqs, err
}

// nominal runs one open-loop segment of roundLaps blocks per kernel: Poisson
// arrivals at nominalRate, each twin 0-50ms behind its cold request, latency
// timed from the due time.
func (s *serveMix) nominal(ctx context.Context) (passStat, []*sreq, error) {
	reqs := s.arrivals(roundLaps*len(s.kernels), &s.nomRot)
	var at time.Duration
	for _, r := range reqs {
		if r.kind == dupReq {
			r.due = r.twin.due + time.Duration(s.rng.Float64()*float64(dupMaxDelay))
		} else {
			at += time.Duration(s.rng.ExpFloat64() / nominalRate * float64(time.Second))
			r.due = at
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	due := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		due[i] = r.due
	}
	ps, err := s.e.timed(func() error {
		ts := load.OpenLoop(ctx, due, serveConns, func(i int) { s.send(reqs[i]) })
		for i := range reqs {
			reqs[i].timing = ts[i]
		}
		return ctx.Err()
	})
	s.verify(reqs)
	return ps, reqs, err
}

// measure alternates nominal segments with saturate passes, so a slow spell
// of the machine lands on a few rounds rather than on one whole phase.
func (s *serveMix) measure(ctx context.Context, deadline time.Time) error {
	var rounds []float64
	for {
		seg, segReqs, err := s.nominal(ctx)
		if err != nil {
			return err
		}
		p, passReqs, err := s.saturate(ctx)
		if err != nil {
			return err
		}
		s.segments, s.segReqs = append(s.segments, seg), append(s.segReqs, segReqs)
		s.passes, s.passReqs = append(s.passes, p), append(s.passReqs, passReqs)
		rounds = append(rounds, (seg.wall + p.wall).Seconds())
		if time.Now().Add(time.Duration(stat.Median(rounds) * float64(time.Second))).After(deadline) {
			return nil
		}
	}
}

func (s *serveMix) modelCells() []cellRec { return s.warm }

func (s *serveMix) close() {
	if s.hs != nil {
		st := s.srv.Stats()
		s.stats1 = &st
		s.hs.Close()
		s.client.CloseIdleConnections()
		s.hs = nil
	}
	if s.st != nil {
		s.e.chk.check(s.st.Close() == nil, "store close failed")
		s.st = nil
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

func (s *serveMix) report(m map[string]float64, n map[string]int, tails map[string]float64) {
	throughputMetrics(m, s.passes)
	rssMetric(m, append(append([]passStat(nil), s.segments...), s.passes...))

	// Latency is the open loop's, timed from each request's due time and
	// pooled over the run: hits as latency_*, cold requests as serve.cold_*.
	var hit, cold, wait, lag, hitHandler, overhead []float64
	simTime := map[string]time.Duration{}
	for _, c := range s.e.cells.since(0) {
		simTime[c.group] += c.dur
	}
	var nominal []*sreq
	for _, rs := range s.segReqs {
		nominal = append(nominal, rs...)
	}
	for _, r := range nominal {
		if r.timing.Skipped {
			continue
		}
		l := ms(r.timing.Latency())
		wait = append(wait, ms(r.timing.ConnWait()))
		lag = append(lag, ms(r.timing.GenLag()))
		id := strconv.Itoa(r.id)
		h := s.handler[id]
		if r.kind == hitReq {
			hit = append(hit, l)
			hitHandler = append(hitHandler, ms(h))
			continue
		}
		cold = append(cold, l)
		if sim, ok := simTime["req-"+id]; ok {
			overhead = append(overhead, ms(h-sim))
		}
	}
	tail := func(name string, xs []float64) {
		v, p := stat.Tail(xs)
		m[name], n[name], tails[name] = v, len(xs), p
	}
	tailMetrics(m, n, tails, "latency_p50_ms", "latency_tail_ms", hit)
	tailMetrics(m, n, tails, "serve.cold_p50_ms", "serve.cold_tail_ms", cold)
	tail("serve.conn_wait_tail_ms", wait)
	tail("gen.lag_tail_ms", lag)
	m["serve.handler_hit_p50_ms"] = stat.Percentile(hitHandler, 50)
	m["serve.cold_overhead_p50_ms"] = stat.Percentile(overhead, 50)
	n["serve.cold_overhead_p50_ms"] = len(overhead)

	var rps []float64
	for i, p := range s.passes {
		ok := 0
		for _, r := range s.passReqs[i] {
			if !r.timing.Skipped && r.status == http.StatusOK && r.timing.Latency() <= maxRPSCutoff {
				ok++
			}
		}
		rps = append(rps, float64(ok)/p.wall.Seconds())
	}
	m["serve.max_rps"] = stat.Median(rps)

	st0, st1 := s.stats0, s.stats1
	m["serve.simulations"] = float64(st1.Simulations - st0.Simulations)
	m["serve.coalesced"] = float64(st1.Coalesced - st0.Coalesced)
	m["serve.rejected"] = float64(st1.RejectedQuota + st1.RejectedBusy + st1.RejectedDrain -
		st0.RejectedQuota - st0.RejectedBusy - st0.RejectedDrain)
	m["engine.memo_hits"] = float64(st1.MemoHits - st0.MemoHits)
	hits, misses := st1.Store.Hits-st0.Store.Hits, st1.Store.Misses-st0.Store.Misses
	m["store.hits"], m["store.misses"] = float64(hits), float64(misses)
	m["store.puts"] = float64(st1.Store.Puts - st0.Store.Puts)
	if hits+misses > 0 {
		m["store.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
}
