// Command teasrvd serves the tea experiment library as a long-running
// simulation service (see tea/serve and DESIGN.md §13).
//
// Usage:
//
//	teasrvd -listen :8080 -store /var/lib/teasim/results
//
// Endpoints:
//
//	GET  /healthz         liveness probe
//	GET  /statz           service counters + store stats (JSON)
//	GET  /v1/experiments  the experiment catalog (JSON)
//	POST /v1/run          run an experiment; returns the rendered report,
//	                      or an SSE progress stream with "stream": true
//
// A POST body names a registry experiment plus its scope:
//
//	{"experiment": "fig5", "workloads": ["bfs"], "max_instructions": 500000,
//	 "format": "csv"}
//	{"experiment": "custom", "preset": "tea",
//	 "patches": ["companion.tea.fill_buf_size=1024"]}
//
// Every memoizable cell is deduplicated against the content-addressed
// result store (-store): identical cells across requests — concurrent or
// not — cost one simulation, and a re-POST of a served request simulates
// nothing. Admission control (-max-concurrent, -queue, -client-quota)
// answers overload with 429 + Retry-After instead of queueing without
// bound.
//
// SIGTERM/SIGINT drain cleanly: the listener closes, in-flight requests
// finish (up to -drain-timeout), the store is compacted and closed, and
// the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"teasim/tea"
	"teasim/tea/fabric"
	"teasim/tea/serve"
	"teasim/tea/store"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		listen  = flag.String("listen", ":8080", "listen address")
		dir     = flag.String("store", "", "content-addressed result store directory (empty = no persistence)")
		ttl     = flag.Duration("store-ttl", 0, "drop stored results older than this (0 = keep forever)")
		shards  = flag.Int("store-shards", 0, "store shard file count (0 = default)")
		workers = flag.Int("workers", 0, "per-request engine worker pool size (0 = TEASIM_WORKERS or GOMAXPROCS)")
		maxConc = flag.Int("max-concurrent", 4, "requests running at once")
		queue   = flag.Int("queue", 8, "requests waiting for a run slot before 429")
		quota   = flag.Int("client-quota", 0, "in-flight requests per client before 429 (0 = unlimited)")
		defN    = flag.Uint64("n", 1_000_000, "default max instructions per cell")
		maxN    = flag.Uint64("max-n", 0, "reject requests budgeting more instructions per cell (0 = uncapped)")
		jobTO   = flag.Duration("job-timeout", 0, "wall-time deadline per cell (0 = none)")
		hangTO  = flag.Duration("hang-timeout", 0, "kill a cell whose simulation makes no progress for this long (0 = none)")
		retries = flag.Int("retries", 0, "re-attempts for a panicking cell before it fails for good")
		drainTO = flag.Duration("drain-timeout", time.Minute, "max wait for in-flight requests on shutdown")
		fabricN = flag.Int("fabric", 0, "scale out simulations to this many worker processes (0 = in-process)")
		fabricW = flag.String("fabric-worker", "", "worker command for -fabric (default: teaworker beside this binary)")
	)
	flag.Parse()
	lg := log.New(os.Stderr, "teasrvd: ", log.LstdFlags)

	var st *store.Store
	if *dir != "" {
		var err error
		st, err = store.Open(*dir, store.Options{Shards: *shards, TTL: *ttl})
		if err != nil {
			lg.Print(err)
			return 1
		}
		defer st.Close()
		lg.Printf("store %s: %d results (%d corrupt records dropped)", *dir, st.Len(), st.Stats().Corrupt)
	}

	var runFn tea.RunFunc
	if *fabricN > 0 {
		fcfg := fabric.Config{Workers: *fabricN, HeartbeatTimeout: *hangTO, Log: os.Stderr}
		if *fabricW != "" {
			fcfg.WorkerCmd = strings.Fields(*fabricW)
		}
		coord, err := fabric.New(fcfg)
		if err != nil {
			lg.Print(err)
			return 1
		}
		defer func() {
			fs := coord.Stats()
			coord.Close()
			lg.Printf("fabric: %d workers (%d live), %d cells in %d shards; %d crashes, %d hangs, %d requeued, %d recovered, %d quarantined, %d fallback",
				fs.Workers, fs.Live, fs.Dispatched, fs.Shards, fs.Crashes, fs.Hangs, fs.Requeues, fs.Recovered, fs.Quarantined, fs.Fallbacks)
			if fs.Collapsed {
				lg.Print("fabric: worker pool collapsed; cells ran in-process")
			}
		}()
		runFn = coord.RunFunc(nil)
		lg.Printf("fabric: %d worker processes", *fabricN)
	}

	srv := serve.New(serve.Config{
		Store:               st,
		Workers:             *workers,
		MaxConcurrent:       *maxConc,
		QueueDepth:          *queue,
		ClientQuota:         *quota,
		DefaultInstructions: *defN,
		MaxInstructions:     *maxN,
		Policy: tea.JobPolicy{
			Timeout:      *jobTO,
			HangTimeout:  *hangTO,
			Retries:      *retries,
			RetryBackoff: 100 * time.Millisecond,
		},
		RunFunc: runFn,
		Log:     lg,
	})
	hs := &http.Server{Addr: *listen, Handler: srv.Handler()}

	// SIGTERM/SIGINT start the drain; a second signal aborts it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	lg.Printf("listening on %s", *listen)

	select {
	case err := <-errc:
		lg.Print(err)
		return 1
	case <-ctx.Done():
	}
	stop()
	lg.Print("draining (in-flight requests finish; signal again to abort)")
	// Empty the admission queue first: queued requests get an immediate 503
	// instead of hanging until Shutdown's grace period expires under them.
	srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		lg.Printf("drain: %v", err)
		return 1
	}
	if st != nil {
		cs, err := st.Compact()
		if err != nil {
			lg.Printf("store compact: %v", err)
			return 1
		}
		lg.Printf("store compacted: %d kept, %d expired", cs.Kept, cs.Expired)
	}
	stats := srv.Stats()
	fmt.Fprintf(os.Stderr, "teasrvd: served %d requests (%d simulations, %d store hits, %d coalesced); drained cleanly\n",
		stats.Requests, stats.Simulations, stats.StoreHits, stats.Coalesced)
	return 0
}
