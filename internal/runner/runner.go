package runner

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"cameo/internal/faultinject"
	"cameo/internal/metrics"
	"cameo/internal/system"
)

// Options configures a Runner. The zero value is usable: GOMAXPROCS
// workers, no persistent cache, no watchdog, no retries, silent.
type Options struct {
	// Jobs is the worker-pool size (<=0 means GOMAXPROCS).
	Jobs int
	// Cache, when non-nil, persists results across invocations keyed by
	// Job.Hash. Loads happen before execution, stores after.
	Cache Cache
	// Progress, when non-nil, receives live progress/ETA lines (normally
	// os.Stderr; never mixed into result output).
	Progress io.Writer
	// Execute overrides how a job is run (tests/instrumentation). Nil
	// means Job.TryRun. Implementations should honour ctx: the runner
	// cancels it on watchdog timeout and sweep cancellation, and waits
	// only ReclaimGrace for hooks that ignore it.
	Execute func(ctx context.Context, j Job) system.Result

	// JobTimeout arms a per-attempt watchdog: an attempt that outlives it
	// has its context cancelled — the simulation engine's preemption
	// points unwind the goroutine and the worker is reclaimed — and fails
	// with a TimeoutError (retried if attempts remain). 0 disables the
	// watchdog.
	JobTimeout time.Duration
	// ReclaimGrace bounds how long a cancelled attempt may take to
	// acknowledge cancellation before its goroutine is abandoned (only
	// non-cooperative code — a hook ignoring ctx — ever hits this). <=0
	// defaults to 2s, comfortably above the engine's preemption latency.
	ReclaimGrace time.Duration
	// Retries is how many times a transiently-failed attempt (panic,
	// timeout, non-permanent error) is retried. Permanent errors — invalid
	// configurations — never retry. 0 means a single attempt.
	Retries int
	// RetryBackoff is the base delay before the first retry; it doubles
	// per attempt (capped at 5s) with deterministic key-derived jitter.
	// <=0 with Retries>0 defaults to 100ms.
	RetryBackoff time.Duration
	// KeepGoing quarantines cells that exhaust their attempts instead of
	// failing the sweep: RunAll completes every other cell and returns a
	// *FailedCellsError carrying the structured FailureReport.
	KeepGoing bool
	// Faults, when non-nil, injects deterministic faults at the job-run
	// site (panics, errors, hangs) for chaos testing. Cache-site faults
	// are armed on the DiskCache itself (SetFaults).
	Faults *faultinject.Plan
}

// Runner executes simulation jobs at most once each and memoizes the
// results in a mutex-guarded map keyed by the canonical cell key.
type Runner struct {
	opts Options

	mu       sync.Mutex
	done     map[string]system.Result
	inflight map[string]*call
	cells    map[string]cellInfo
	failed   map[string]CellFailure

	// progress counters (guarded by mu)
	completed int
	total     int
	fromCache int
	started   time.Time

	// Pool self-metrics. These are owned atomic instruments (not pull
	// closures) because workers increment them concurrently.
	reg          *metrics.Registry
	executed     *metrics.Counter
	cacheHits    *metrics.Counter
	memoHits     *metrics.Counter
	panicked     *metrics.Counter
	retried      *metrics.Counter
	timedOut     *metrics.Counter
	cancelled    *metrics.Counter
	abandoned    *metrics.Counter
	failures     *metrics.Counter
	cellWallHist *metrics.Histogram

	// record builds the recording a plan's cells share (system.Record;
	// tests wrap it to count and track recordings).
	record func(context.Context, Job) (*system.Recording, error)
}

// call is one in-flight singleflight execution.
type call struct {
	ready chan struct{}
	res   system.Result
	err   error
}

// New builds a Runner.
func New(opts Options) *Runner {
	if opts.Jobs <= 0 {
		opts.Jobs = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		opts:     opts,
		done:     map[string]system.Result{},
		inflight: map[string]*call{},
		cells:    map[string]cellInfo{},
		failed:   map[string]CellFailure{},
		reg:      metrics.NewRegistry(),
		record: func(ctx context.Context, j Job) (*system.Recording, error) {
			return system.Record(ctx, j.Specs, j.Cfg)
		},
	}
	sc := r.reg.Scope("runner")
	r.executed = sc.Counter("cells_executed")
	r.cacheHits = sc.Counter("cache_hits")
	r.memoHits = sc.Counter("memo_hits")
	r.panicked = sc.Counter("panics")
	r.retried = sc.Counter("retries")
	r.timedOut = sc.Counter("timeouts")
	r.cancelled = sc.Counter("cancelled")
	r.abandoned = sc.Counter("abandoned_goroutines")
	r.failures = sc.Counter("cells_failed")
	r.cellWallHist = sc.Histogram("cell_wall_ms")
	return r
}

// Jobs returns the worker-pool size.
func (r *Runner) Jobs() int { return r.opts.Jobs }

// ExecutedCells returns how many cells this runner actually simulated
// (cache hits and memo hits excluded) — the number a fleet's
// zero-recompute assertions watch.
func (r *Runner) ExecutedCells() uint64 { return r.executed.Value() }

// CacheHitCells returns how many cells were answered from the persistent
// cache instead of being executed.
func (r *Runner) CacheHitCells() uint64 { return r.cacheHits.Value() }

// Get returns the job's result, computing it at most once: the first
// caller for a key executes, concurrent callers for the same key block on
// that execution, later callers hit the memo map. ctx propagates into the
// execution: cancelling the first caller's ctx preempts the simulation's
// event loop (the cell fails with a *CancelledError for every waiter) and
// the worker is reclaimed. A waiter that arrived later and is cancelled
// merely stops waiting; the cell keeps computing for the others.
func (r *Runner) Get(ctx context.Context, j Job) (system.Result, error) {
	return r.get(ctx, j, nil)
}

// get is Get for a cell of a RunAll plan, which replays ps's recording
// when it executes the cell; ps is nil outside a plan and for identities
// the plan uses once.
func (r *Runner) get(ctx context.Context, j Job, ps *planStream) (system.Result, error) {
	key := j.Key()
	r.mu.Lock()
	if res, ok := r.done[key]; ok {
		r.mu.Unlock()
		r.memoHits.Inc()
		return res, nil
	}
	if c, ok := r.inflight[key]; ok {
		r.mu.Unlock()
		select {
		case <-c.ready:
			return c.res, c.err
		case <-ctx.Done():
			return system.Result{}, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		r.mu.Unlock()
		return system.Result{}, err
	}
	c := &call{ready: make(chan struct{})}
	r.inflight[key] = c
	r.mu.Unlock()

	c.res, c.err = r.execute(ctx, j, ps)

	r.mu.Lock()
	delete(r.inflight, key)
	if c.err == nil {
		r.done[key] = c.res
	}
	r.mu.Unlock()
	close(c.ready)
	return c.res, c.err
}

// execute runs one cell: cache consult, then up to 1+Retries watchdog-bound
// attempts with backoff, stopping early on permanent (config) errors and on
// sweep cancellation. A cell that exhausts its attempts is recorded in the
// failure map; a cancelled cell is not — cancellation is the sweep's
// verdict, not the cell's; a cell that succeeds is stored to the cache.
func (r *Runner) execute(ctx context.Context, j Job, ps *planStream) (system.Result, error) {
	key, name, hash := j.Key(), j.Name(), j.Hash()
	if r.opts.Cache != nil {
		if cached, ok := r.opts.Cache.Load(hash); ok {
			r.cacheHits.Inc()
			r.mu.Lock()
			r.fromCache++
			r.cells[key] = cellInfo{name: name, fromCache: true}
			r.mu.Unlock()
			return cached, nil
		}
	}

	maxAttempts := 1 + r.opts.Retries
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			r.retried.Inc()
			sleepCtx(ctx, retryBackoff(r.opts.RetryBackoff, attempt, key))
		}
		if err := ctx.Err(); err != nil {
			r.cancelled.Inc()
			return system.Result{}, &CancelledError{Name: name, Cause: err}
		}
		res, wall, err := r.attempt(ctx, j, name, key, attempt, ps)
		if err == nil {
			r.executed.Inc()
			r.cellWallHist.Observe(uint64(wall.Milliseconds()))
			r.mu.Lock()
			r.cells[key] = cellInfo{name: name, wallNS: wall.Nanoseconds(), attempts: attempt + 1}
			r.mu.Unlock()
			if r.opts.Cache != nil {
				r.opts.Cache.Store(hash, res)
			}
			return res, nil
		}
		lastErr = err
		var ce *CancelledError
		if errors.As(err, &ce) {
			// The sweep was cancelled out from under the cell: surface it
			// without burning retries or recording a cell failure.
			r.cancelled.Inc()
			return system.Result{}, err
		}
		if IsPermanent(err) {
			break
		}
	}

	r.failures.Inc()
	attempts := maxAttempts
	if IsPermanent(lastErr) {
		attempts = 1
	}
	r.mu.Lock()
	r.failed[key] = CellFailure{
		Key:      key,
		Name:     name,
		Hash:     hash,
		Attempts: attempts,
		Kind:     classifyFailure(lastErr),
		Error:    firstLine(lastErr.Error()),
	}
	r.mu.Unlock()
	return system.Result{}, lastErr
}

// attemptResult carries one attempt's outcome across the watchdog channel.
type attemptResult struct {
	res  system.Result
	wall time.Duration
	err  error
}

// attempt runs one execution attempt in its own goroutine under a
// per-attempt context (the caller's ctx bounded by JobTimeout). On timeout
// or sweep cancellation the context is cancelled, the engine's preemption
// points unwind the simulation, and attempt waits up to ReclaimGrace for
// the goroutine to return — so a timed-out cell releases its worker, its
// goroutine, and its machine memory instead of leaking them. Panics (real
// or injected) become PanicError; injected hangs and stalls park until
// cancellation wakes them.
func (r *Runner) attempt(ctx context.Context, j Job, name, key string, attempt int, ps *planStream) (system.Result, time.Duration, error) {
	actx := ctx
	cancel := context.CancelFunc(func() {})
	if r.opts.JobTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, r.opts.JobTimeout)
	}
	defer cancel()

	ch := make(chan attemptResult, 1) // buffered: an abandoned attempt must not block forever on send
	go func() {
		defer func() {
			if p := recover(); p != nil {
				r.panicked.Inc()
				ch <- attemptResult{err: &PanicError{
					Name:  name,
					Value: fmt.Sprint(p),
					Stack: string(debug.Stack()),
				}}
			}
		}()
		if f, ok := r.opts.Faults.Evaluate(faultinject.SiteJobRun, key, attempt); ok {
			switch f.Kind {
			case faultinject.Panic:
				panic(fmt.Sprintf("faultinject: injected panic (attempt %d)", attempt))
			case faultinject.Error:
				ch <- attemptResult{err: fmt.Errorf("faultinject: injected error (attempt %d)", attempt)}
				return
			case faultinject.Hang:
				// A blocked cell (lost I/O, deadlocked dependency): parks
				// until its delay elapses or cancellation wakes it, then
				// continues normally — TryRun below notices the dead
				// context immediately.
				sleepCtx(actx, positiveDelay(f.Delay))
			case faultinject.Stall:
				// A compute-bound runaway cell: burns CPU in bounded
				// slices, re-checking the context between slices exactly
				// like the engine's preemption points.
				busyStall(actx, positiveDelay(f.Delay))
			}
		}
		start := time.Now()
		var ar attemptResult
		if r.opts.Execute != nil {
			if err := actx.Err(); err != nil {
				ch <- attemptResult{err: &CancelledError{Name: name, Cause: err}}
				return
			}
			ar.res = r.opts.Execute(actx, j)
		} else {
			ar.res, ar.err = j.tryRun(actx, ps.recording(actx, j, r.record))
		}
		ar.wall = time.Since(start)
		ch <- ar
	}()

	select {
	case ar := <-ch:
		return ar.res, ar.wall, r.mapAttemptErr(ctx, actx, name, ar.err)
	case <-actx.Done():
	}

	// The attempt overran its deadline or the sweep was cancelled. Cancel
	// (idempotent) and wait for the goroutine to acknowledge: cooperative
	// code comes back within the engine's preemption latency; only code
	// ignoring ctx runs out the grace and is abandoned.
	cancel()
	grace := r.opts.ReclaimGrace
	if grace <= 0 {
		grace = 2 * time.Second
	}
	reclaimed := true
	timer := time.NewTimer(grace)
	select {
	case <-ch:
	case <-timer.C:
		reclaimed = false
		r.abandoned.Inc()
	}
	timer.Stop()

	if err := ctx.Err(); err != nil {
		r.cancelled.Inc()
		return system.Result{}, 0, &CancelledError{Name: name, Cause: err}
	}
	r.timedOut.Inc()
	return system.Result{}, 0, &TimeoutError{Name: name, Timeout: r.opts.JobTimeout, Abandoned: !reclaimed}
}

// mapAttemptErr normalizes an attempt's own error against the two contexts:
// a CancelledError caused by the attempt deadline (not the sweep) is really
// a watchdog timeout and must be retryable as such.
func (r *Runner) mapAttemptErr(ctx, actx context.Context, name string, err error) error {
	var ce *CancelledError
	if err == nil || !errors.As(err, &ce) {
		return err
	}
	if ctx.Err() != nil {
		r.cancelled.Inc()
		return &CancelledError{Name: name, Cause: ctx.Err()}
	}
	if actx.Err() != nil {
		r.timedOut.Inc()
		return &TimeoutError{Name: name, Timeout: r.opts.JobTimeout}
	}
	return err
}

// positiveDelay maps a rule's zero/negative delay to "effectively forever"
// (cancellation, not the clock, ends it).
func positiveDelay(d time.Duration) time.Duration {
	if d <= 0 {
		return time.Hour
	}
	return d
}

// sleepCtx sleeps for d or until ctx is cancelled, reporting whether the
// full duration elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// busyStall spins on the CPU for up to d, polling ctx between bounded
// slices — a deterministic stand-in for a runaway compute loop that still
// honours cooperative cancellation.
func busyStall(ctx context.Context, d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return
		}
		slice := time.Now().Add(200 * time.Microsecond)
		for time.Now().Before(slice) {
		}
	}
}

// retryBackoff computes the delay before retry number attempt (>=1):
// exponential from base, capped at 5s, plus deterministic jitter derived
// from (key, attempt) so two workers retrying different cells don't
// thunder in lockstep, while the same sweep replays identically.
func retryBackoff(base time.Duration, attempt int, key string) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt && d < 5*time.Second; i++ {
		d *= 2
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", key, attempt)
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	return d + jitter
}

// RunAll fans jobs across the worker pool and waits for the drain. Result
// order is irrelevant here — read them back with Get (memo hits) or
// Results(). Duplicate cells execute once. On cancellation the pool stops
// picking up new cells, in-flight cells are preempted at the engine's next
// cancellation check (their goroutines unwind and rejoin the pool), and
// ctx.Err() is returned.
// Without KeepGoing, per-cell errors are collected and joined without
// stopping other cells; with KeepGoing, failed cells are quarantined into
// a FailureReport and RunAll returns a *FailedCellsError describing them.
// Cells of the plan that consume the same request streams share one
// recording of them (see planStreams); it is freed once the last of them
// finishes, and never outlives RunAll.
func (r *Runner) RunAll(ctx context.Context, jobs []Job) error {
	unique := make([]Job, 0, len(jobs))
	keys := make([]string, 0, len(jobs))
	seen := map[string]bool{}
	for _, j := range jobs {
		if k := j.Key(); !seen[k] {
			seen[k] = true
			unique = append(unique, j)
			keys = append(keys, k)
		}
	}
	streams := r.planStreams(unique, keys)

	r.mu.Lock()
	r.total = len(unique)
	r.completed = 0
	r.started = time.Now()
	r.mu.Unlock()

	workers := r.opts.Jobs
	if workers > len(unique) {
		workers = len(unique)
	}
	if workers < 1 {
		workers = 1
	}

	feed := make(chan int)
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		errs  []error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				if ctx.Err() != nil {
					continue // drain the feed without starting new cells
				}
				_, err := r.get(ctx, unique[i], streams[i])
				streams[i].release()
				if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
					errMu.Lock()
					errs = append(errs, err)
					errMu.Unlock()
				}
				r.tick()
			}
		}()
	}
	for i := range unique {
		feed <- i
	}
	close(feed)
	wg.Wait()
	r.finishProgress()

	if err := ctx.Err(); err != nil {
		return err
	}
	if r.opts.KeepGoing {
		if rep := r.FailureReport(); rep != nil {
			return &FailedCellsError{Report: rep}
		}
		return nil
	}
	return errors.Join(errs...)
}

// FailureReport returns the structured report of every cell that exhausted
// its attempts, key-sorted, or nil when nothing failed.
func (r *Runner) FailureReport() *FailureReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failed) == 0 {
		return nil
	}
	keys := make([]string, 0, len(r.failed))
	for k := range r.failed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cells := make([]CellFailure, 0, len(keys))
	for _, k := range keys {
		cells = append(cells, r.failed[k])
	}
	return &FailureReport{Schema: FailureSchema, Failed: len(cells), Cells: cells}
}

// tick advances the progress display by one completed cell.
func (r *Runner) tick() {
	if r.opts.Progress == nil {
		return
	}
	r.mu.Lock()
	r.completed++
	done, total, cached, failed := r.completed, r.total, r.fromCache, len(r.failed)
	elapsed := time.Since(r.started)
	r.mu.Unlock()

	eta := "?"
	if done > 0 {
		remaining := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
		eta = remaining.Round(time.Second).String()
	}
	status := ""
	if failed > 0 {
		status = fmt.Sprintf(" %d failed", failed)
	}
	fmt.Fprintf(r.opts.Progress, "\rrunner: %d/%d cells (%d cached%s) elapsed %s eta %s ",
		done, total, cached, status, elapsed.Round(time.Second), eta)
}

// finishProgress terminates the \r-progress line with a summary.
func (r *Runner) finishProgress() {
	if r.opts.Progress == nil {
		return
	}
	r.mu.Lock()
	done, cached, failed := r.completed, r.fromCache, len(r.failed)
	elapsed := time.Since(r.started)
	r.mu.Unlock()
	status := ""
	if failed > 0 {
		status = fmt.Sprintf(", %d failed", failed)
	}
	fmt.Fprintf(r.opts.Progress, "\rrunner: %d cells in %s (%d from cache%s)      \n",
		done, elapsed.Round(time.Millisecond), cached, status)
}

// Lookup returns the memoized result for a key without computing anything.
func (r *Runner) Lookup(key string) (system.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.done[key]
	return res, ok
}

// Len returns the number of memoized cells.
func (r *Runner) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.done)
}

// Results merges every memoized cell into a deterministic grid, ordered by
// canonical key — independent of worker count, scheduling, and completion
// order, so a parallel run's grid is byte-identical to a serial run's.
func (r *Runner) Results() []system.Result {
	r.mu.Lock()
	keys := make([]string, 0, len(r.done))
	for k := range r.done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]system.Result, 0, len(keys))
	for _, k := range keys {
		out = append(out, r.done[k])
	}
	r.mu.Unlock()
	return out
}
