package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"teasim/tea"
	"teasim/tea/store"
)

// stubRun is a deterministic fake simulation: cycles depend only on the
// workload name and mode, so reports built from it are stable bytes.
func stubRun(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
	cyc := uint64(1000 + 10*len(workload))
	if cfg.Mode != tea.ModeBaseline {
		cyc -= 100
	}
	return tea.Result{
		Workload:     workload,
		Mode:         cfg.Mode,
		Cycles:       cyc,
		Instructions: 5000,
		IPC:          5000 / float64(cyc),
		Coverage:     0.5,
		Accuracy:     0.9,
	}, nil
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postRun(t *testing.T, url string, req Request, hdr map[string]string) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestCatalogAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{RunFunc: stubRun})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if got := readBody(t, resp); resp.StatusCode != 200 || got != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, got)
	}

	resp, err = http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	catalog := readBody(t, resp)
	for _, want := range []string{`"fig5"`, `"fig8"`, `"table3"`, `"custom"`} {
		if !strings.Contains(catalog, want) {
			t.Errorf("catalog missing %s:\n%s", want, catalog)
		}
	}
}

func TestRunValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{RunFunc: stubRun, DefaultInstructions: 1000, MaxInstructions: 50_000})

	cases := []struct {
		name string
		req  Request
		want string // substring of the 400 body
	}{
		{"unknown experiment", Request{Experiment: "fig99"}, "unknown experiment"},
		{"missing experiment", Request{}, "missing experiment"},
		{"unknown workload", Request{Experiment: "fig5", Workloads: []string{"doom"}}, "unknown workload"},
		{"bad format", Request{Experiment: "fig5", Format: "yaml"}, "format"},
		{"budget over cap", Request{Experiment: "fig5", MaxInstructions: 60_000}, "per-cell cap"},
		{"negative scale", Request{Experiment: "fig5", Scale: -1}, "scale"},
		{"preset on non-custom", Request{Experiment: "fig5", Preset: "tea"}, "only apply"},
		{"patches on non-custom", Request{Experiment: "fig6", Patches: []string{"tea.lead=5"}}, "only apply"},
		{"unknown preset", Request{Experiment: "custom", Preset: "nope"}, "preset"},
		{"spec and preset", Request{Experiment: "custom", Preset: "tea", Spec: json.RawMessage(`{}`)}, "mutually exclusive"},
		{"invalid inline spec", Request{Experiment: "custom", Spec: json.RawMessage(`{"frontend":{"width":0}}`)}, "frontend.width must be positive"},
		{"unknown patch path", Request{Experiment: "custom", Patches: []string{"frontend.nope=3"}}, "nope"},
		{"patches invalidate preset", Request{Experiment: "custom", Preset: "tea", Patches: []string{"backend.rob_size=0"}}, "backend.rob_size must be positive"},
		{"removed memory model patch", Request{Experiment: "custom", Patches: []string{"memory.model=quick"}}, `unknown field "model" under "memory"`},
		{"removed memory model in spec", Request{Experiment: "custom", Spec: json.RawMessage(`{"memory":{"model":"quick"}}`)}, `unknown field "model"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postRun(t, ts.URL, tc.req, nil)
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %q)", resp.StatusCode, body)
			}
			if !strings.Contains(body, tc.want) {
				t.Errorf("body %q does not mention %q", body, tc.want)
			}
		})
	}
}

// TestRunRawBody pins the body rules a Request value cannot express: the
// body is exactly one JSON object (trailing whitespace aside), no workload
// repeats, and a body over the size cap is answered 413.
func TestRunRawBody(t *testing.T) {
	h := New(Config{RunFunc: stubRun, DefaultInstructions: 1000}).Handler()
	const fig6 = `{"experiment":"fig6","workloads":["mcf"],"max_instructions":1000,"format":"csv"}`
	cases := []struct {
		name   string
		body   string
		status int
		want   string // substring of the response body
	}{
		{"trailing object", fig6 + `{"experiment":"fig8"}`, http.StatusBadRequest, "trailing data"},
		{"trailing garbage", fig6 + ` garbage`, http.StatusBadRequest, "invalid character"},
		{"trailing newline", fig6 + "\n", http.StatusOK, "workload,MPKI"},
		{"oversized body", `{"experiment":"custom","patches":["` + strings.Repeat("a", 2<<20) + `"]}`,
			http.StatusRequestEntityTooLarge, "exceeds 1048576 bytes"},
		{"repeated workload", `{"experiment":"fig8","workloads":["mcf","bfs","mcf"]}`,
			http.StatusBadRequest, `repeated workload "mcf"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(tc.body)))
			if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.want) {
				t.Errorf("status %d, body %q; want %d mentioning %q", rec.Code, rec.Body, tc.status, tc.want)
			}
		})
	}
}

// TestRunRenderFailure: a report that JSON cannot encode (a NaN metric) is
// answered 500 with the encoder's error and none of the report's headers,
// and it is counted as failed. The same rows still render as CSV.
func TestRunRenderFailure(t *testing.T) {
	nanRun := func(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
		res, err := stubRun(ctx, workload, cfg)
		res.Coverage = math.NaN()
		return res, err
	}
	s := New(Config{RunFunc: nanRun})
	post := func(format string) *httptest.ResponseRecorder {
		body := `{"experiment":"fig6","workloads":["mcf"],"max_instructions":1000,"format":"` + format + `"}`
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
		return rec
	}
	rec := post("json")
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value: NaN") {
		t.Errorf("json: status %d, body %q; want 500 naming the NaN", rec.Code, rec.Body)
	}
	for k := range rec.Header() {
		if strings.HasPrefix(k, "X-Tea-") {
			t.Errorf("json: the 500 carries the report header %s", k)
		}
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("json: the 500's Content-Type is %q", ct)
	}
	if rec := post("csv"); rec.Code != http.StatusOK {
		t.Errorf("csv: status %d, body %q; want 200", rec.Code, rec.Body)
	}
	if n := s.Stats().Failed; n != 1 {
		t.Errorf("failed = %d, want 1", n)
	}
}

// raceEnabled is set in -race builds (race_test.go). Their sync.Pool drops
// a random quarter of its Puts, so a store hit makes more of its pooled
// encoders and buffers afresh there, and is held to a race bound instead.
var raceEnabled bool

// maxStoreHitAllocs bounds the heap allocations of one 3-kernel Fig 8
// request served entirely from the store, through the handler: request
// decoding, a per-request engine, nine store hits (baseline, TEA and
// runahead per kernel) and the JSON render.
const maxStoreHitAllocs = 85

// maxFig6StoreHitAllocs bounds a 1-kernel Fig 6 request whose one cell is a
// store hit: the twin of a cold request, once the cold one has simulated.
const maxFig6StoreHitAllocs = 60

// The two bounds in -race builds (Go 1.24 measures 85–89 and 58–64 there).
const (
	maxRaceStoreHitAllocs     = 110
	maxRaceFig6StoreHitAllocs = 80
)

// TestStoreHitAllocs is an allocation tripwire for the daemon's commonest
// request, a small Fig 8 matrix whose every cell is a store hit, and for
// the smallest one, a single-cell Fig 6.
func TestStoreHitAllocs(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := New(Config{RunFunc: stubRun, Store: st, Workers: 1}).Handler()
	for _, tc := range []struct {
		req              Request
		hits             string
		limit, raceLimit int
	}{
		{Request{Experiment: "fig8", Workloads: []string{"bfs", "mcf", "xz"}, MaxInstructions: 10_000}, "9",
			maxStoreHitAllocs, maxRaceStoreHitAllocs},
		{Request{Experiment: "fig6", Workloads: []string{"mcf"}, MaxInstructions: 10_001}, "1",
			maxFig6StoreHitAllocs, maxRaceFig6StoreHitAllocs},
	} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
			return rec
		}
		post() // simulate and store the cells
		if rec := post(); rec.Code != http.StatusOK || rec.Header().Get("X-Tea-Store-Hits") != tc.hits {
			t.Fatalf("%s re-POST: status %d, store hits %q; want 200 with %s hits (body %q)",
				body, rec.Code, rec.Header().Get("X-Tea-Store-Hits"), tc.hits, rec.Body)
		}
		for k := range post().Header() {
			if k != http.CanonicalHeaderKey(k) {
				t.Errorf("response header key %q is not canonical", k)
			}
		}
		limit := tc.limit
		if raceEnabled {
			limit = tc.raceLimit
		}
		n := testing.AllocsPerRun(20, func() { post() })
		t.Logf("%s: %.0f allocations", body, n)
		if n > float64(limit) {
			t.Errorf("a store-hit %s request makes %.0f allocations, want <= %d", tc.req.Experiment, n, limit)
		}
	}
}

// TestConcurrentStoreHits renders store hits on many goroutines at once,
// in every format: the pooled JSON encoders and their buffers must never
// mix one response into another. Every body must equal the single-threaded
// response to the same request.
func TestConcurrentStoreHits(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, Config{RunFunc: stubRun, Store: st, Workers: 2, MaxConcurrent: 8})

	var reqs []Request
	for _, format := range []string{"", "json", "csv", "text"} {
		for _, wl := range [][]string{{"bfs"}, {"mcf", "xz"}, {"xz", "bfs", "mcf"}} {
			reqs = append(reqs, Request{Experiment: "fig8", Workloads: wl, MaxInstructions: 10_000, Format: format})
		}
		reqs = append(reqs, Request{Experiment: "fig6", Workloads: []string{"mcf"}, MaxInstructions: 10_000, Format: format})
	}
	want := make([]string, len(reqs))
	for i, req := range reqs {
		readBody(t, postRun(t, ts.URL, req, nil)) // simulate and store the cells
		resp := postRun(t, ts.URL, req, nil)
		if want[i] = readBody(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", req, resp.StatusCode, want[i])
		}
	}

	const goroutines, perGoroutine = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perGoroutine; k++ {
				i := (g + 5*k) % len(reqs)
				body, err := json.Marshal(reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					t.Error(err)
				case resp.StatusCode != http.StatusOK || resp.Header.Get("X-Tea-Simulated") != "0":
					t.Errorf("%s: status %d, %s cells simulated; want 200 from the store",
						body, resp.StatusCode, resp.Header.Get("X-Tea-Simulated"))
				case string(got) != want[i]:
					t.Errorf("%s: body differs from the single-threaded response:\n%s\nvs\n%s", body, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCoalescingAndStore is the dedup acceptance test: N identical
// concurrent requests cost one simulation per distinct cell — every other
// resolution is a store hit or rides an in-flight simulation — and a
// follow-up re-POST is served entirely from the store.
func TestCoalescingAndStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	srv, ts := newTestServer(t, Config{RunFunc: stubRun, Store: st, MaxConcurrent: 8})

	req := Request{
		Experiment:      "fig5",
		Workloads:       []string{"bfs", "mcf"},
		MaxInstructions: 10_000,
		Format:          "csv",
	}
	const n = 4
	const cells = 4 // 2 workloads x {baseline, tea}

	var wg sync.WaitGroup
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postRun(t, ts.URL, req, map[string]string{"X-Tea-Client": fmt.Sprintf("c%d", i)})
			if resp.StatusCode != 200 {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			bodies[i] = readBody(t, resp)
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("request %d body differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	stats := srv.Stats()
	if stats.Simulations != cells {
		t.Errorf("Simulations = %d, want %d (one per distinct cell)", stats.Simulations, cells)
	}
	if got := stats.StoreHits + stats.Coalesced; got != (n-1)*cells {
		t.Errorf("StoreHits+Coalesced = %d, want %d", got, (n-1)*cells)
	}

	// Re-POST: zero new simulations, everything from the store.
	resp := postRun(t, ts.URL, req, nil)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("re-POST status %d: %s", resp.StatusCode, body)
	}
	if body != bodies[0] {
		t.Errorf("re-POST body differs:\n%s\nvs\n%s", body, bodies[0])
	}
	if got := resp.Header.Get("X-Tea-Simulated"); got != "0" {
		t.Errorf("re-POST X-Tea-Simulated = %s, want 0", got)
	}
	if got := resp.Header.Get("X-Tea-Store-Hits"); got != fmt.Sprint(cells) {
		t.Errorf("re-POST X-Tea-Store-Hits = %s, want %d", got, cells)
	}
	if srv.Stats().Simulations != cells {
		t.Errorf("re-POST simulated: Simulations = %d, want still %d", srv.Stats().Simulations, cells)
	}
}

// blockingRun returns a RunFunc that signals each call on started and holds
// until gate closes, for occupying the server's run slots deterministically.
func blockingRun(started chan<- struct{}, gate <-chan struct{}) tea.RunFunc {
	return func(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return tea.Result{}, ctx.Err()
		}
		return stubRun(ctx, workload, cfg)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestClientQuota429(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		RunFunc:       blockingRun(started, gate),
		MaxConcurrent: 1,
		ClientQuota:   1,
	})

	req := Request{Experiment: "fig5", Workloads: []string{"bfs"}, MaxInstructions: 1000}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := postRun(t, ts.URL, req, map[string]string{"X-Tea-Client": "alice"})
		if resp.StatusCode != 200 {
			t.Errorf("first request: status %d", resp.StatusCode)
		}
		readBody(t, resp)
	}()
	<-started

	resp := postRun(t, ts.URL, req, map[string]string{"X-Tea-Client": "alice"})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429 (body %q)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(body, "quota") {
		t.Errorf("429 body %q does not mention quota", body)
	}
	if srv.Stats().RejectedQuota != 1 {
		t.Errorf("RejectedQuota = %d, want 1", srv.Stats().RejectedQuota)
	}

	close(gate)
	<-done
}

func TestQueueFull429(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		RunFunc:       blockingRun(started, gate),
		MaxConcurrent: 1,
		QueueDepth:    1,
	})

	req := Request{Experiment: "fig5", Workloads: []string{"bfs"}, MaxInstructions: 1000}
	var wg sync.WaitGroup
	for _, client := range []string{"a", "b"} {
		wg.Add(1)
		go func(client string) {
			defer wg.Done()
			resp := postRun(t, ts.URL, req, map[string]string{"X-Tea-Client": client})
			if resp.StatusCode != 200 {
				t.Errorf("client %s: status %d", client, resp.StatusCode)
			}
			readBody(t, resp)
		}(client)
		if client == "a" {
			<-started // a holds the only run slot before b queues
		}
	}
	waitFor(t, "one queued request", func() bool { _, q := srv.adm.depth(); return q == 1 })

	resp := postRun(t, ts.URL, req, map[string]string{"X-Tea-Client": "c"})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429 (body %q)", resp.StatusCode, body)
	}
	if !strings.Contains(body, "queue full") {
		t.Errorf("429 body %q does not mention the queue", body)
	}
	if srv.Stats().RejectedBusy != 1 {
		t.Errorf("RejectedBusy = %d, want 1", srv.Stats().RejectedBusy)
	}

	close(gate)
	wg.Wait()
}

// TestDrainAnswersQueued503 pins the shutdown contract: Drain answers every
// request queued for a run slot with an immediate 503 (instead of leaving it
// hanging until the listener dies), rejects new arrivals the same way, and
// lets the request already running finish with 200.
func TestDrainAnswersQueued503(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		RunFunc:       blockingRun(started, gate),
		MaxConcurrent: 1,
		QueueDepth:    4,
	})

	req := Request{Experiment: "fig5", Workloads: []string{"bfs"}, MaxInstructions: 1000}
	runnerDone := make(chan struct{})
	go func() {
		defer close(runnerDone)
		resp := postRun(t, ts.URL, req, map[string]string{"X-Tea-Client": "runner"})
		if resp.StatusCode != 200 {
			t.Errorf("running request: status %d, want 200", resp.StatusCode)
		}
		readBody(t, resp)
	}()
	<-started // runner holds the only run slot

	queuedDone := make(chan *http.Response, 1)
	go func() {
		queuedDone <- postRun(t, ts.URL, req, map[string]string{"X-Tea-Client": "queued"})
	}()
	waitFor(t, "one queued request", func() bool { _, q := srv.adm.depth(); return q == 1 })

	srv.Drain()
	select {
	case resp := <-queuedDone:
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("queued request: status %d, want 503 (body %q)", resp.StatusCode, body)
		}
		if !strings.Contains(body, "draining") {
			t.Errorf("503 body %q does not mention draining", body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request hung after Drain; want immediate 503")
	}

	resp := postRun(t, ts.URL, req, map[string]string{"X-Tea-Client": "late"})
	readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", resp.StatusCode)
	}
	if got := srv.Stats().RejectedDrain; got != 2 {
		t.Errorf("RejectedDrain = %d, want 2", got)
	}

	close(gate) // the in-flight request still completes normally
	<-runnerDone
}

// TestSSEGolden pins the stream framing: with one worker and the
// deterministic stub, the event sequence and its bytes are stable, and the
// embedded report equals a direct library render of the same experiment.
func TestSSEGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{RunFunc: stubRun, Workers: 1})

	req := Request{
		Experiment:      "fig5",
		Workloads:       []string{"bfs"},
		MaxInstructions: 10_000,
		Format:          "csv",
		Stream:          true,
	}
	resp := postRun(t, ts.URL, req, nil)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}

	// The same experiment through the library, rendered the same way.
	eng := tea.NewEngine(1, tea.WithRunFunc(stubRun))
	rep, err := tea.RunExperiment(context.Background(), "fig5", tea.ExpOptions{
		Workloads:       []string{"bfs"},
		MaxInstructions: 10_000,
		Engine:          eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := rep.Write(&direct, tea.FormatCSV); err != nil {
		t.Fatal(err)
	}
	reportJSON, err := json.Marshal(map[string]string{"format": "csv", "body": direct.String()})
	if err != nil {
		t.Fatal(err)
	}

	golden := strings.Join([]string{
		`event: job`,
		`data: {"index":0,"workload":"bfs","mode":"baseline","phase":"started"}`,
		``,
		`event: job`,
		`data: {"index":0,"workload":"bfs","mode":"baseline","phase":"done"}`,
		``,
		`event: job`,
		`data: {"index":1,"workload":"bfs","mode":"tea","phase":"started"}`,
		``,
		`event: job`,
		`data: {"index":1,"workload":"bfs","mode":"tea","phase":"done"}`,
		``,
		`event: report`,
		`data: ` + string(reportJSON),
		``,
		`event: done`,
		`data: {"simulated":2,"store_hits":0,"coalesced":0,"memo_hits":0,"error_rows":0}`,
		``,
		``,
	}, "\n")
	if body != golden {
		t.Errorf("SSE stream mismatch:\n--- got ---\n%q\n--- want ---\n%q", body, golden)
	}
}

// TestRealRunByteIdentity exercises the full stack with the real simulator
// on a tiny budget: the daemon's report must be byte-identical to the
// direct library run, and a re-POST must simulate nothing.
func TestRealRunByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, Config{Store: st})

	const budget = 10_000
	req := Request{
		Experiment:      "fig5",
		Workloads:       []string{"bfs"},
		MaxInstructions: budget,
		Format:          "csv",
	}
	resp := postRun(t, ts.URL, req, nil)
	served := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, served)
	}

	rep, err := tea.RunExperiment(context.Background(), "fig5", tea.ExpOptions{
		Workloads:       []string{"bfs"},
		MaxInstructions: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := rep.Write(&direct, tea.FormatCSV); err != nil {
		t.Fatal(err)
	}
	if served != direct.String() {
		t.Errorf("daemon report differs from direct run:\n--- daemon ---\n%s\n--- direct ---\n%s", served, direct.String())
	}

	resp = postRun(t, ts.URL, req, nil)
	if got := readBody(t, resp); got != served {
		t.Errorf("re-POST differs from first response")
	}
	if got := resp.Header.Get("X-Tea-Simulated"); got != "0" {
		t.Errorf("re-POST X-Tea-Simulated = %s, want 0", got)
	}
}

// TestSSEReportsRetries runs a cell whose first attempt panics under a
// one-retry policy: the retry simulates the cell (the panicking attempt
// must not leave its coalescing slot behind), and the stream carries the
// failed attempt before the cell's done event.
func TestSSEReportsRetries(t *testing.T) {
	var calls sync.Mutex
	panicked := false
	flaky := func(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
		calls.Lock()
		first := cfg.Mode == tea.ModeTEA && !panicked
		panicked = panicked || first
		calls.Unlock()
		if first {
			panic("flaky cell")
		}
		return stubRun(ctx, workload, cfg)
	}
	_, ts := newTestServer(t, Config{RunFunc: flaky, Workers: 1, Policy: tea.JobPolicy{Retries: 1}})
	resp := postRun(t, ts.URL, Request{
		Experiment:      "fig5",
		Workloads:       []string{"bfs"},
		MaxInstructions: 10_000,
		Format:          "csv",
		Stream:          true,
	}, nil)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	failed := strings.Index(body, `"mode":"tea","phase":"attempt-failed","error":"panic in bfs/tea (spec `)
	done := strings.Index(body, `data: {"index":1,"workload":"bfs","mode":"tea","phase":"done"}`)
	if failed < 0 || done < failed || !strings.Contains(body[failed:done], `flaky cell","attempt":1}`) {
		t.Errorf("stream lacks the failed attempt before a clean done:\n%s", body)
	}
	if !strings.Contains(body, `"simulated":3,"store_hits":0,"coalesced":0,"memo_hits":0,"error_rows":0`) {
		t.Errorf("retried cell did not complete cleanly:\n%s", body)
	}
}

// waitCtx is a request context that reports the first time the request
// waits on it. A request that found a free run slot, under a policy without
// timers, waits on its context only while one of its cells rides another
// request's flight, so the report means it has joined that flight.
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

// postFig6 posts a one-cell Fig 6 request through h under ctx.
func postFig6(h http.Handler, ctx context.Context) *httptest.ResponseRecorder {
	const body = `{"experiment":"fig6","workloads":["mcf"],"max_instructions":1000,"format":"csv"}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)).WithContext(ctx))
	return rec
}

// TestCoalescedWaiterSurvivesLeaderCancel: request B rides request A's
// simulation of a cell, then A's client goes away mid-cell. A's cancelled
// run is no outcome for B, which takes the cell over and answers 200.
func TestCoalescedWaiterSurvivesLeaderCancel(t *testing.T) {
	started := make(chan struct{})
	var calls atomic.Int32
	run := func(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done() // A's run holds the cell until A's client goes away
			return tea.Result{}, ctx.Err()
		}
		return stubRun(ctx, workload, cfg)
	}
	h := New(Config{RunFunc: run}).Handler()

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	doneA := make(chan struct{})
	go func() {
		defer close(doneA)
		postFig6(h, ctxA)
	}()
	<-started
	ctxB := newWaitCtx()
	go func() {
		<-ctxB.waiting
		cancelA()
	}()
	b := postFig6(h, ctxB)
	<-doneA
	if b.Code != http.StatusOK || b.Header().Get("X-Tea-Simulated") != "1" {
		t.Fatalf("B: status %d, %s simulated (body %q); want 200 with the cell taken over",
			b.Code, b.Header().Get("X-Tea-Simulated"), b.Body)
	}
	if want := postFig6(h, context.Background()).Body.String(); b.Body.String() != want {
		t.Errorf("B's body differs from a fresh request's:\n%s\nvs\n%s", b.Body, want)
	}
}

// TestCoalescedWaiterGetsRetriedOutcome: request B rides request A's
// simulation of a cell whose first attempt panics. The flight covers A's
// whole policy, so B gets the retried attempt's result, as A does.
func TestCoalescedWaiterGetsRetriedOutcome(t *testing.T) {
	started := make(chan struct{})
	ctxB := newWaitCtx()
	var calls atomic.Int32
	run := func(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctxB.waiting // B has joined this flight
			panic("flaky cell")
		}
		return stubRun(ctx, workload, cfg)
	}
	h := New(Config{RunFunc: run, Policy: tea.JobPolicy{Retries: 1}}).Handler()

	recA := make(chan *httptest.ResponseRecorder, 1)
	go func() { recA <- postFig6(h, context.Background()) }()
	<-started
	b := postFig6(h, ctxB)
	a := <-recA
	if a.Code != http.StatusOK || b.Code != http.StatusOK || a.Body.String() != b.Body.String() {
		t.Fatalf("A: %d %q; B: %d %q; want 200 with identical bodies", a.Code, a.Body, b.Code, b.Body)
	}
	if a.Header().Get("X-Tea-Simulated") != "2" || b.Header().Get("X-Tea-Coalesced") != "1" {
		t.Errorf("A simulated %s, B coalesced %s; want 2 attempts and 1",
			a.Header().Get("X-Tea-Simulated"), b.Header().Get("X-Tea-Coalesced"))
	}
}
