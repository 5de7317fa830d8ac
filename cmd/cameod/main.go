// Command cameod is the long-running sweep service: an HTTP front end over
// the parallel runner for shared or remote use, hardened for continuous
// operation.
//
// Endpoints:
//
//	POST /sweep    run a sweep; JSON body {"org","benchmarks","sweep","values",
//	               "instr","cores","scale","seed","timeout_ms"}; cells
//	               return in request order. 400 invalid request (an
//	               unknown field included), 429 saturated (honour
//	               Retry-After), 503 draining, 504 request deadline hit.
//	GET  /healthz  liveness: 200 while the process serves, even during drain.
//	GET  /readyz   admission readiness: a JSON body with in-flight slots,
//	               queue depth, drain state and keeps_results (true when
//	               -cachedir turns the reply memo on); 503 once draining
//	               begins.
//	GET  /metrics  server counters/gauges as deterministic JSON.
//	GET  /cache/<hash>  the fleet cache-peer protocol: a checksummed
//	               cameo-cache-entry-v1 envelope, which the fetching peer
//	               verifies before adopting it (requires -cachedir).
//
// A request's timeout_ms (and a disconnecting client) cancels its sweep
// mid-flight: the cancellation reaches the simulator's event loops, which
// unwind at their preemption points, and the workers are reclaimed. A cell
// that fails (a panic, a -job-timeout) is attempted once: the reply holds
// every other cell and lists it under "failures", and it is never cached,
// so a repeat request runs it again.
//
// Fleet mode: with -peers, a worker consults the listed peer caches before
// recomputing a cell. With -coordinator -workers=..., cameod serves the
// same /sweep contract but shards cells across the workers by consistent
// hashing, sends a cell a worker with keeps_results already answered back
// to that worker, and work-steals stragglers (never a cell an active
// worker answered before) — see internal/fleet. The -workers roster is the
// whole fleet, and the ring over it never changes. The coordinator probes
// every worker's /readyz each -heartbeat (default 1s): -suspect-misses
// consecutive misses, a failed dispatch or a draining worker's 503 turn a
// worker suspect, which pauses its dispatch and opens its queued cells to
// stealing, and the first probe that finds it ready makes it alive again
// (alive ↔ suspect; a worker is never dropped). While every worker is
// suspect, a sweep waits for one until its timeout_ms or its client ends
// it. A coordinator keeps nothing on disk, so -cachedir is a
// usage error with -coordinator: a lost coordinator's sweep is re-posted
// to a restarted one, or to any other coordinator over the same -workers
// roster, and the workers answer the cells it completed from their caches.
// -chaos/-chaos-seed inject deterministic transport faults (drop, latency,
// error5xx, partition) at the fleet/dispatch, fleet/heartbeat, and
// fleet/cachefetch sites for replayable drills.
//
// On SIGTERM/SIGINT cameod drains: it stops admitting (readyz flips to
// 503), lets in-flight sweeps finish within -drain-grace, force-cancels any
// stragglers, flushes the -cachedir result cache, and exits 0. A second
// signal aborts immediately with exit 130. Exit codes: 0 clean (including
// drained), 1 runtime failure (including an unusable listen address), 2 bad
// flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cameo/internal/faultinject"
	"cameo/internal/fleet"
	"cameo/internal/runner"
	"cameo/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("cameod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8347", "listen address")
		jobs        = fs.Int("jobs", runtime.GOMAXPROCS(0), "simulation workers per sweep")
		maxInflight = fs.Int("max-inflight", 2, "sweep requests executing concurrently")
		maxQueue    = fs.Int("max-queue", 8, "sweep requests allowed to wait for a slot (beyond that: 429)")
		maxCells    = fs.Int("max-cells", 1024, "largest grid a single request may ask for")
		jobTimeout  = fs.Duration("job-timeout", 0, "per-cell watchdog: cancel a cell running longer than this, reclaim its worker and fail the cell (0 = off)")
		cachedir    = fs.String("cachedir", "", "persistent result-cache directory shared across requests and restarts (workers only: a coordinator keeps nothing on disk)")
		drainGrace  = fs.Duration("drain-grace", 30*time.Second, "how long a drain waits for in-flight sweeps before cancelling them")
		peers       = fs.String("peers", "", "comma-separated peer worker base URLs whose caches are consulted before recomputing (needs -cachedir)")
		coordinator = fs.Bool("coordinator", false, "serve as fleet coordinator: shard sweeps across -workers instead of simulating locally")
		workers     = fs.String("workers", "", "comma-separated worker base URLs the coordinator shards across")

		leaseTTL      = fs.Duration("lease-ttl", 30*time.Second, "coordinator mode: cell dispatch lease duration; a cell whose lease lapses is dispatched again (0 = leasing off)")
		heartbeat     = fs.Duration("heartbeat", time.Second, "coordinator mode: failure-detector cadence; every worker's /readyz is probed this often, and a suspect that answers ready is alive again")
		suspectMisses = fs.Int("suspect-misses", 0, "coordinator mode: consecutive missed /readyz probes before a worker turns suspect: its dispatch pauses and its queued cells open to stealing (0 = default 2)")
		chaos         = fs.String("chaos", "", "semicolon-separated deterministic fault rules site:kind[:opt=v]... injected under fleet transport (sites fleet/dispatch, fleet/heartbeat, fleet/cachefetch; kinds drop, latency, error5xx, partition)")
		chaosSeed     = fs.Uint64("chaos-seed", 1, "seed for the -chaos fault plan (same seed + same traffic = same faults)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := log.New(stderr, "cameod: ", log.LstdFlags)

	var chaosPlan *faultinject.Plan
	if *chaos != "" {
		plan, err := faultinject.ParseSpec(*chaosSeed, *chaos)
		if err != nil {
			logger.Print(err)
			return 2
		}
		chaosPlan = plan
		logger.Printf("chaos: injecting %q (seed %d)", *chaos, *chaosSeed)
	}

	// Listen before building anything else: a busy or malformed address is
	// the most common operational error, and it must fail with one clear
	// line, not a panic or a goroutine's log.Fatal.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("cannot listen on %s: %v", *addr, err)
		return 1
	}

	var handler http.Handler
	drain := func() error { return nil }
	switch {
	case *coordinator:
		if *workers == "" {
			logger.Print("-coordinator needs -workers (the fleet to shard across)")
			ln.Close()
			return 2
		}
		if *cachedir != "" {
			logger.Print("-coordinator takes no -cachedir: a coordinator keeps nothing on disk (re-post a lost coordinator's sweep to any coordinator over the same -workers)")
			ln.Close()
			return 2
		}
		co, err := fleet.NewCoordinator(fleet.CoordinatorOptions{
			Workers:           splitList(*workers),
			MaxCells:          *maxCells,
			HeartbeatInterval: *heartbeat,
			SuspectMisses:     *suspectMisses,
			Chaos:             chaosPlan,
			LeaseTTL:          *leaseTTL,
			Log:               logger,
		})
		if err != nil {
			logger.Print(err)
			ln.Close()
			return 1
		}
		defer co.Close()
		handler = co.Handler()
		logger.Printf("coordinating %d workers (heartbeat %s)", len(splitList(*workers)), *heartbeat)
	default:
		opts := server.Options{
			Jobs:        *jobs,
			MaxInflight: *maxInflight,
			MaxQueue:    *maxQueue,
			MaxCells:    *maxCells,
			JobTimeout:  *jobTimeout,
			CacheDir:    *cachedir,
			DrainGrace:  *drainGrace,
			Log:         logger,
		}
		if *peers != "" {
			if *cachedir == "" {
				logger.Print("-peers needs -cachedir: the peer protocol serves and adopts entries through the local disk cache")
				ln.Close()
				return 2
			}
			disk, err := runner.OpenDiskCache(*cachedir)
			if err != nil {
				logger.Print(err)
				ln.Close()
				return 1
			}
			opts.CacheDir = ""
			opts.Disk = disk
			tier := fleet.NewPeerTier(disk, splitList(*peers), 0)
			if chaosPlan != nil {
				tier.SetChaos(chaosPlan)
			}
			opts.Cache = tier
		}
		srv, err := server.New(opts)
		if err != nil {
			logger.Print(err)
			ln.Close()
			return 1
		}
		handler = srv.Handler()
		drain = srv.Drain
	}

	httpSrv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Printf("listening on %s (inflight %d, queue %d, %d workers/sweep)",
		ln.Addr(), *maxInflight, *maxQueue, *jobs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		logger.Print(err)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default handling: a second signal kills us (exit 130)

	// Drain: admission closes first, then in-flight sweeps get the grace,
	// then the cache is flushed. The HTTP listener shuts down after the
	// handlers have finished, so Shutdown returns promptly.
	if err := drain(); err != nil {
		logger.Printf("drain: %v", err)
		return 1
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("shutdown: %v", err)
		return 1
	}
	fmt.Fprintln(stderr, "cameod: exiting after clean drain")
	return 0
}

// splitList parses a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
