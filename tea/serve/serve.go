// Package serve turns the tea experiment library into a long-running
// simulation service: clients POST an experiment request (an experiment
// name from the tea registry, a workload subset, a budget, and — for the
// custom experiment — a machine spec or preset plus patches) and get back
// the rendered report in any tea report format, or a live SSE progress
// stream.
//
// The daemon composes the pieces the library already has:
//
//   - tea.RunExperiment dispatches by name through the experiment registry,
//     so the catalog grows without the server changing.
//   - Every memoizable cell is addressed by the engine memo tuple and
//     deduplicated against a content-addressed store (tea/store): a re-POST
//     of a served request simulates nothing.
//   - Identical in-flight cells across concurrent requests coalesce onto
//     one simulation (singleflight over the memo key).
//   - Admission control layers on tea.JobPolicy: per-client in-flight
//     quotas and a bounded job queue, both answering 429 + Retry-After on
//     overflow, so overload degrades by rejection instead of collapse.
//
// See cmd/teasrvd for the daemon binary and DESIGN.md §13 for the API.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"time"

	"teasim/internal/telemetry"
	"teasim/internal/workloads"
	"teasim/tea"
	"teasim/tea/spec"
	"teasim/tea/store"
)

// Config configures a Server. The zero value serves with no persistence, no
// quotas, a 4-deep run pool, and an 8-deep queue.
type Config struct {
	// Store is the content-addressed result store (nil = no persistence:
	// dedup is per-request memoization and in-flight coalescing only).
	Store *store.Store
	// Workers bounds each request's engine worker pool (0 =
	// tea.DefaultWorkers).
	Workers int
	// MaxConcurrent bounds simultaneously running requests (0 = 4).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a run slot (0 = 8); beyond it
	// the server answers 429.
	QueueDepth int
	// ClientQuota bounds one client's in-flight (running + queued) requests
	// (0 = unlimited). Clients identify via the X-Tea-Client header, else
	// their remote host.
	ClientQuota int
	// DefaultInstructions is the per-cell budget when a request omits one
	// (0 = 1M, the library default).
	DefaultInstructions uint64
	// MaxInstructions caps a request's per-cell budget (0 = uncapped);
	// above it the server answers 400 rather than letting one request
	// monopolize the pool.
	MaxInstructions uint64
	// Policy is the per-job failure policy handed to every request's engine
	// (timeouts, hang watchdog, retries).
	Policy tea.JobPolicy
	// RunFunc is the simulation entry point (nil = tea.RunContext). Tests
	// stub it; alternative backends (a remote worker fleet) can too.
	RunFunc tea.RunFunc
	// Log receives request-level log lines (nil = silent).
	Log *log.Logger
}

// Request is the POST /v1/run body.
type Request struct {
	// Experiment names a tea registry entry ("fig5", "fig8", "custom", ...).
	Experiment string `json:"experiment"`
	// Workloads restricts the suite (empty = all).
	Workloads []string `json:"workloads,omitempty"`
	// MaxInstructions is the per-cell budget (0 = server default).
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	// Scale selects workload input sizes (0 = 1, paper-like).
	Scale int `json:"scale,omitempty"`
	// Spec is an inline machine spec for the custom experiment.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Preset names a registered machine preset for the custom experiment
	// (alternative to Spec).
	Preset string `json:"preset,omitempty"`
	// Patches are dotted-path spec patches for the custom experiment.
	Patches []string `json:"patches,omitempty"`
	// Format selects the report rendering: text | json | csv (default json).
	Format string `json:"format,omitempty"`
	// Partial quarantines failing cells as annotated ERROR rows instead of
	// failing the request (tea.ExpOptions.Partial).
	Partial bool `json:"partial,omitempty"`
	// Stream switches the response to an SSE progress stream (also selected
	// by an Accept: text/event-stream header).
	Stream bool `json:"stream,omitempty"`
}

// reqStats counts one request's cell outcomes (reported in response headers
// and the SSE done event).
type reqStats struct {
	simulated telemetry.SyncCounter // cells actually simulated for this request
	storeHits telemetry.SyncCounter // cells served from the content-addressed store
	coalesced telemetry.SyncCounter // cells ridden on another request's in-flight simulation
}

// Server is the simulation-as-a-service daemon core: an http.Handler plus
// the shared store, coalescing, and admission state behind it.
type Server struct {
	cfg    Config
	adm    *admission
	flight flightGroup
	run    tea.RunFunc
	log    *log.Logger

	// Service-lifetime metrics (see /statz).
	requests      telemetry.SyncCounter
	rejectedQuota telemetry.SyncCounter
	rejectedBusy  telemetry.SyncCounter
	rejectedDrain telemetry.SyncCounter
	failed        telemetry.SyncCounter
	simulated     telemetry.SyncCounter
	storeHits     telemetry.SyncCounter
	coalesced     telemetry.SyncCounter
	memoHits      telemetry.SyncCounter
	errorRows     telemetry.SyncCounter
}

// New builds a server from the config.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.DefaultInstructions == 0 {
		cfg.DefaultInstructions = 1_000_000
	}
	run := cfg.RunFunc
	if run == nil {
		run = tea.RunContext
	}
	lg := cfg.Log
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	return &Server{
		cfg: cfg,
		adm: newAdmission(cfg.MaxConcurrent, cfg.QueueDepth, cfg.ClientQuota),
		run: run,
		log: lg,
	}
}

// Drain flips the server into shutdown mode: requests queued for a run slot
// are answered immediately with 503 (they would otherwise hang until the
// listener died under them), new runs are rejected the same way, and requests
// already running finish normally. Call it before http.Server.Shutdown so the
// queue empties instead of riding out the grace period. Idempotent.
func (s *Server) Drain() {
	s.adm.drain()
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/v1/experiments", s.handleExperiments)
	mux.HandleFunc("/v1/run", s.handleRun)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Statz is the /statz payload: service-lifetime counters plus the live
// admission and store state.
type Statz struct {
	Requests      uint64 `json:"requests"`
	RejectedQuota uint64 `json:"rejected_quota"`
	RejectedBusy  uint64 `json:"rejected_busy"`
	RejectedDrain uint64 `json:"rejected_drain"`
	Failed        uint64 `json:"failed"`
	Simulations   uint64 `json:"simulations"`
	StoreHits     uint64 `json:"store_hits"`
	Coalesced     uint64 `json:"coalesced"`
	MemoHits      uint64 `json:"memo_hits"`
	ErrorRows     uint64 `json:"error_rows"`
	Running       int    `json:"running"`
	Queued        int    `json:"queued"`

	Store *store.Stats `json:"store,omitempty"`
}

// Stats snapshots the service counters (also served as /statz).
func (s *Server) Stats() Statz {
	running, queued := s.adm.depth()
	st := Statz{
		Requests:      s.requests.Value(),
		RejectedQuota: s.rejectedQuota.Value(),
		RejectedBusy:  s.rejectedBusy.Value(),
		RejectedDrain: s.rejectedDrain.Value(),
		Failed:        s.failed.Value(),
		Simulations:   s.simulated.Value(),
		StoreHits:     s.storeHits.Value(),
		Coalesced:     s.coalesced.Value(),
		MemoHits:      s.memoHits.Value(),
		ErrorRows:     s.errorRows.Value(),
		Running:       running,
		Queued:        queued,
	}
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		st.Store = &ss
	}
	return st
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

// experimentInfo is one catalog entry of the /v1/experiments listing.
type experimentInfo struct {
	Name        string `json:"name"`
	Title       string `json:"title"`
	Description string `json:"description"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var list []experimentInfo
	for _, e := range tea.Experiments() {
		list = append(list, experimentInfo{Name: e.Name, Title: e.Title, Description: e.Description})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"experiments": list})
}

// httpError is a client-visible request failure with its status code.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// clientID identifies the quota principal: the X-Tea-Client header when
// present, else the remote host.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Tea-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// maxRequestBody bounds a POST body; a longer one is answered 413.
const maxRequestBody = 1 << 20

// parseRequest decodes and validates the POST body into experiment options.
// The body must be exactly one JSON object: anything but whitespace after
// it is refused.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (Request, tea.ExpOptions, tea.Format, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the request object")
		}
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return req, tea.ExpOptions{}, 0, &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return req, tea.ExpOptions{}, 0, badRequest("bad request body: %v", err)
	}
	if req.Experiment == "" {
		return req, tea.ExpOptions{}, 0, badRequest("missing experiment (one of %v)", tea.ExperimentNames())
	}
	if _, ok := tea.LookupExperiment(req.Experiment); !ok {
		return req, tea.ExpOptions{}, 0, badRequest("unknown experiment %q (one of %v)", req.Experiment, tea.ExperimentNames())
	}

	format := tea.FormatJSON
	if req.Format != "" {
		f, err := tea.ParseFormat(req.Format)
		if err != nil {
			return req, tea.ExpOptions{}, 0, badRequest("%v", err)
		}
		format = f
	}

	for _, name := range req.Workloads {
		if _, ok := workloads.ByName(name); !ok {
			return req, tea.ExpOptions{}, 0, badRequest("unknown workload %q (see /v1/experiments docs; suite: %v)", name, tea.Workloads())
		}
	}
	if err := workloads.CheckUnique(req.Workloads); err != nil {
		return req, tea.ExpOptions{}, 0, badRequest("%v", err)
	}

	budget := req.MaxInstructions
	if budget == 0 {
		budget = s.cfg.DefaultInstructions
	}
	if s.cfg.MaxInstructions > 0 && budget > s.cfg.MaxInstructions {
		return req, tea.ExpOptions{}, 0, badRequest(
			"max_instructions %d exceeds this server's per-cell cap %d", budget, s.cfg.MaxInstructions)
	}
	if req.Scale < 0 {
		return req, tea.ExpOptions{}, 0, badRequest("scale must be >= 0")
	}

	opts := tea.ExpOptions{
		MaxInstructions: budget,
		Scale:           req.Scale,
		Workloads:       req.Workloads,
		Partial:         req.Partial,
	}

	hasMachine := len(req.Spec) > 0 || req.Preset != "" || len(req.Patches) > 0
	if req.Experiment == "custom" {
		if len(req.Spec) > 0 && req.Preset != "" {
			return req, tea.ExpOptions{}, 0, badRequest("spec and preset are mutually exclusive")
		}
		switch {
		case len(req.Spec) > 0:
			m, err := spec.Parse(req.Spec)
			if err != nil {
				return req, tea.ExpOptions{}, 0, badRequest("%v", err)
			}
			opts.Spec = &m
		case req.Preset != "":
			m, err := spec.Preset(req.Preset)
			if err != nil {
				return req, tea.ExpOptions{}, 0, badRequest("%v (presets: %v)", err, spec.Presets())
			}
			opts.Spec = &m
		}
		opts.Set = req.Patches
		// Resolve the machine as the custom experiment will, so an invalid spec or
		// patch is the client's 400, not a failed run's 500.
		if _, err := (tea.Config{Spec: opts.Spec, Set: opts.Set}).ResolvedSpec(); err != nil {
			return req, tea.ExpOptions{}, 0, badRequest("%v", err)
		}
	} else if hasMachine {
		return req, tea.ExpOptions{}, 0, badRequest(
			"spec/preset/patches only apply to the %q experiment; %q derives its machines from its modes",
			"custom", req.Experiment)
	}
	return req, opts, format, nil
}

// runFnFor builds the per-request engine run function: content-addressed
// store lookup, then cross-request singleflight, then real simulation (with
// the fresh result persisted). Layered under the engine, the request's own
// memoization and job policy still apply on top.
func (s *Server) runFnFor(st *reqStats) tea.RunFunc {
	return func(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
		simulate := func() (tea.Result, error) {
			st.simulated.Inc()
			s.simulated.Inc()
			return s.run(ctx, workload, cfg)
		}
		key, ok := tea.MemoKeyOf(workload, cfg)
		if !ok {
			// Mirror Engine.runJob: let the direct run surface any
			// resolution error with full context.
			return simulate()
		}
		if s.cfg.Store != nil {
			if res, ok := s.cfg.Store.Get(key); ok {
				st.storeHits.Inc()
				s.storeHits.Inc()
				return res, nil
			}
		}
		res, err, coalesced := s.flight.do(ctx, key, func() (tea.Result, error) {
			res, err := simulate()
			if err == nil && s.cfg.Store != nil {
				if perr := s.cfg.Store.Put(tea.JournalRecord{MemoKey: key, Result: res}); perr != nil {
					// Like the engine's journal: a service that cannot
					// persist results should fail loudly.
					return res, perr
				}
			}
			return res, err
		})
		if coalesced {
			st.coalesced.Inc()
			s.coalesced.Inc()
		}
		return res, err
	}
}

// jobEvent is the SSE "job" payload (wall time is deliberately omitted: the
// stream is for liveness, and its golden test wants stable bytes).
type jobEvent struct {
	Index    int    `json:"index"`
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Phase    string `json:"phase"`
	Error    string `json:"error,omitempty"`
	Attempt  int    `json:"attempt,omitempty"` // attempt-failed only
}

// doneEvent is the SSE "done" payload.
type doneEvent struct {
	Simulated uint64 `json:"simulated"`
	StoreHits uint64 `json:"store_hits"`
	Coalesced uint64 `json:"coalesced"`
	MemoHits  int    `json:"memo_hits"`
	ErrorRows int    `json:"error_rows"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Inc()
	req, opts, format, err := s.parseRequest(w, r)
	if err != nil {
		s.fail(w, r, err)
		return
	}

	client := clientID(r)
	release, err := s.adm.acquire(r.Context(), client)
	if err != nil {
		var qe quotaError
		var be busyError
		var de drainError
		switch {
		case errors.As(err, &qe):
			s.rejectedQuota.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.As(err, &be):
			s.rejectedBusy.Inc()
			w.Header().Set("Retry-After", "2")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.As(err, &de):
			// The server is going away: answer 503 and close the
			// connection so the client retries elsewhere.
			s.rejectedDrain.Inc()
			w.Header().Set("Connection", "close")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default: // client gave up while queued
		}
		return
	}
	defer release()

	stream := req.Stream || r.Header.Get("Accept") == "text/event-stream"
	start := time.Now()
	if stream {
		s.runStream(w, r, req, opts, format)
	} else {
		s.runSync(w, r, req, opts, format)
	}
	s.log.Printf("%s experiment=%s client=%s stream=%v in %v",
		r.URL.Path, req.Experiment, client, stream, time.Since(start).Round(time.Millisecond))
}

// runSync runs the experiment and answers with the rendered report.
func (s *Server) runSync(w http.ResponseWriter, r *http.Request, req Request, opts tea.ExpOptions, format tea.Format) {
	st := &reqStats{}
	eng := tea.NewEngine(s.cfg.Workers,
		tea.WithPolicy(s.cfg.Policy),
		tea.WithRunFunc(s.runFnFor(st)))
	opts.Engine = eng

	rep, err := tea.RunExperiment(r.Context(), req.Experiment, opts)
	if err != nil {
		if r.Context().Err() != nil {
			return // client went away; nothing to answer
		}
		s.fail(w, r, err)
		return
	}
	ms := eng.MemoStats()
	contentType := "text/plain; charset=utf-8"
	switch format {
	case tea.FormatJSON:
		contentType = "application/json"
	case tea.FormatCSV:
		contentType = "text/csv; charset=utf-8"
	}
	// One backing array for the values, each capped at length one so a
	// later Header.Add cannot overwrite its neighbour.
	v := []string{
		contentType,
		req.Experiment,
		strconv.FormatUint(st.simulated.Value(), 10),
		strconv.FormatUint(st.storeHits.Value(), 10),
		strconv.FormatUint(st.coalesced.Value(), 10),
		strconv.Itoa(ms.Hits),
		strconv.Itoa(rep.ErrorRows()),
	}
	h := w.Header()
	for i, k := range runHeaders {
		h[k] = v[i : i+1 : i+1]
	}
	if err := rep.Write(w, format); err != nil && r.Context().Err() == nil {
		// Text and CSV fail only once the client has gone. A JSON report
		// that fails to encode has written nothing, so the failure is
		// still answered, without the report's headers.
		for _, k := range runHeaders {
			delete(h, k)
		}
		s.fail(w, r, err)
		return
	}
	s.memoHits.Add(uint64(ms.Hits))
	s.errorRows.Add(uint64(rep.ErrorRows()))
}

// runHeaders are runSync's response headers, in the order of its values.
// The keys are in canonical form, which Header.Set would otherwise compute.
var runHeaders = [...]string{
	"Content-Type",
	"X-Tea-Experiment",
	"X-Tea-Simulated",
	"X-Tea-Store-Hits",
	"X-Tea-Coalesced",
	"X-Tea-Memo-Hits",
	"X-Tea-Error-Rows",
}

// runStream runs the experiment over an SSE stream: one "job" event per
// engine progress notification, then a "report" event carrying the rendered
// body, then "done" with the request's dedup counters.
func (s *Server) runStream(w http.ResponseWriter, r *http.Request, req Request, opts tea.ExpOptions, format tea.Format) {
	sse, err := newSSE(w)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	st := &reqStats{}
	eng := tea.NewEngine(s.cfg.Workers,
		tea.WithPolicy(s.cfg.Policy),
		tea.WithRunFunc(s.runFnFor(st)),
		tea.WithProgress(func(ev tea.JobEvent) {
			je := jobEvent{
				Index:    ev.Index,
				Workload: ev.Job.Workload,
				Mode:     ev.Job.Cfg.Mode.String(),
				Phase:    ev.Phase.String(),
				Attempt:  ev.Attempt,
			}
			if ev.Err != nil {
				je.Error = firstLine(ev.Err.Error())
			}
			sse.event("job", je)
		}))
	opts.Engine = eng

	rep, err := tea.RunExperiment(r.Context(), req.Experiment, opts)
	if err != nil {
		if r.Context().Err() == nil {
			s.failed.Inc()
			sse.event("error", map[string]string{"error": err.Error()})
		}
		return
	}
	var body bytes.Buffer
	if err := rep.Write(&body, format); err != nil {
		s.failed.Inc()
		sse.event("error", map[string]string{"error": err.Error()})
		return
	}
	ms := eng.MemoStats()
	s.memoHits.Add(uint64(ms.Hits))
	s.errorRows.Add(uint64(rep.ErrorRows()))
	sse.event("report", map[string]string{"format": format.String(), "body": body.String()})
	sse.event("done", doneEvent{
		Simulated: st.simulated.Value(),
		StoreHits: st.storeHits.Value(),
		Coalesced: st.coalesced.Value(),
		MemoHits:  ms.Hits,
		ErrorRows: rep.ErrorRows(),
	})
}

// fail answers a request-level failure with its status (500 unless the
// error carries one).
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	s.failed.Inc()
	var he *httpError
	if errors.As(err, &he) {
		http.Error(w, he.msg, he.status)
		return
	}
	s.log.Printf("%s failed: %v", r.URL.Path, err)
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// firstLine truncates an error message to its first line.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
