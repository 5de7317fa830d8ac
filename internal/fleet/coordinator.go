package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"cameo/internal/boundedmap"
	"cameo/internal/faultinject"
	"cameo/internal/metrics"
	"cameo/internal/runner"
	"cameo/internal/sweepapi"
)

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Workers are the cameod worker base URLs of the fleet — its whole
	// roster: no worker joins later. At least one is required.
	Workers []string
	// MaxCells caps the grid size a single request may ask for (<=0: 1024).
	MaxCells int
	// HeartbeatInterval is the failure detector's cadence (<=0: 1s): every
	// interval each worker's /readyz is probed, and the answers drive the
	// alive ↔ suspect lifecycle.
	HeartbeatInterval time.Duration
	// SuspectMisses is how many consecutive missed probes turn an alive
	// worker suspect (<=0: 2). A suspect keeps its ring arcs; its dispatch
	// pauses and its queued cells are open to stealing until a probe finds
	// it ready again.
	SuspectMisses int
	// Chaos, when non-nil, injects deterministic transport faults under
	// every coordinator request (sites fleet/dispatch, fleet/heartbeat).
	Chaos *faultinject.Plan
	// LeaseTTL, when positive, grants every cell dispatch a time-bounded
	// in-memory lease: which worker holds which in-flight cell, until when.
	// An expired lease makes its cell re-dispatchable (per-key result
	// dedupe makes double execution harmless), so a hung or
	// admission-blocked worker, which the failure detector never suspects,
	// cannot stall a sweep. Zero disables leasing.
	LeaseTTL time.Duration
	// Log receives operational lines (suspicions, recoveries, lapsed
	// leases). Nil discards them.
	Log *log.Logger
}

// dispatchRetries is how many times a transport-failed dispatch is retried
// against the same worker before the worker is health-probed.
const dispatchRetries = 2

// Coordinator shards sweeps across a fleet of cameod workers: answer-
// affinity and consistent-hash placement over a ring fixed to the roster,
// bounded per-worker dispatch, work-stealing off the longest queue when a
// worker goes idle, and a two-state failure detector (alive ↔ suspect)
// whose /readyz probes pause a suspect's dispatch and resume it once the
// worker is ready again. A suspect's queued cells are open to stealing:
// they move to other workers that way and never change ring owner. A cell
// some worker that keeps results (/readyz keeps_results) has already
// answered goes back to that worker, and no idle worker steals it while
// that worker is active and lets no dispatch lease lapse, so a fault-free
// sweep simulates each needed cell once; every other cell goes to its ring
// owner. Safe for concurrent sweeps; a state change observed by one sweep
// applies to every active and future sweep.
//
// A coordinator keeps nothing on disk: its ring, answer record and leases
// are hints over the workers' checksummed result caches. A lost
// coordinator's sweep is re-posted to a restarted one, or to any other
// coordinator over the same roster: the ring places every cell as the lost
// one did, and the workers answer the cells it completed from their
// caches.
type Coordinator struct {
	opts    CoordinatorOptions
	client  *Client
	log     *log.Logger
	mem     *membership
	ring    *Ring                           // over the roster, fixed at construction
	answers *boundedmap.Map[string, string] // cell hash → worker that answered it

	mu   sync.Mutex
	runs map[*sweepRun]struct{}

	bgCancel  context.CancelFunc
	bgWG      sync.WaitGroup
	closeOnce sync.Once

	reg        *metrics.Registry
	sweeps     *metrics.Counter
	dispatched *metrics.Counter
	stolen     *metrics.Counter
	retries    *metrics.Counter
	shedWaits  *metrics.Counter
	cellsFail  *metrics.Counter
	leaseGrant *metrics.Counter
	leaseExp   *metrics.Counter
}

// NewCoordinator validates the options, builds a Coordinator and its ring
// over the roster, and starts the failure detector's per-worker heartbeat
// loops (and, with LeaseTTL set, the lease reaper). Call Close to stop
// them.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("fleet: coordinator needs at least one worker")
	}
	seen := map[string]bool{}
	normalized := make([]string, 0, len(opts.Workers))
	for _, w := range opts.Workers {
		w, err := normalizeWorkerURL(w)
		if err != nil {
			return nil, err
		}
		if seen[w] {
			return nil, fmt.Errorf("fleet: worker %q registered twice", w)
		}
		seen[w] = true
		normalized = append(normalized, w)
	}
	opts.Workers = normalized
	if opts.MaxCells <= 0 {
		opts.MaxCells = 1024
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = time.Second
	}
	if opts.Log == nil {
		opts.Log = log.New(io.Discard, "", 0)
	}
	c := &Coordinator{
		opts:    opts,
		client:  NewClient(opts.Chaos),
		log:     opts.Log,
		ring:    NewRing(DefaultVirtualNodes),
		runs:    map[*sweepRun]struct{}{},
		reg:     metrics.NewRegistry(),
		answers: boundedmap.New[string, string](answerRecordBound),
	}
	sc := c.reg.Scope("fleet")
	c.sweeps = sc.Counter("sweeps_completed")
	c.dispatched = sc.Counter("cells_dispatched")
	c.stolen = sc.Counter("cells_stolen")
	c.retries = sc.Counter("dispatch_retries")
	c.shedWaits = sc.Counter("shed_backoffs")
	c.cellsFail = sc.Counter("cells_failed")
	c.leaseGrant = sc.Counter("leases_granted")
	c.leaseExp = sc.Counter("leases_expired")
	c.mem = newMembership(opts.SuspectMisses, sc)
	sc.GaugeFunc("workers_alive", func() float64 { return float64(len(c.mem.byState(StateAlive))) })
	sc.GaugeFunc("workers_suspect", func() float64 { return float64(len(c.mem.byState(StateSuspect))) })
	for _, w := range opts.Workers {
		c.mem.admit(w)
		c.ring.Add(w)
	}
	bgCtx, bgCancel := context.WithCancel(context.Background())
	c.bgCancel = bgCancel
	for _, w := range opts.Workers {
		c.bgWG.Add(1)
		go func() {
			defer c.bgWG.Done()
			c.heartbeatLoop(bgCtx, w)
		}()
	}
	if opts.LeaseTTL > 0 {
		c.bgWG.Add(1)
		go func() {
			defer c.bgWG.Done()
			c.leaseReaperLoop(bgCtx)
		}()
	}
	return c, nil
}

// normalizeWorkerURL trims and validates a worker base URL.
func normalizeWorkerURL(w string) (string, error) {
	w = strings.TrimRight(strings.TrimSpace(w), "/")
	if !strings.HasPrefix(w, "http://") && !strings.HasPrefix(w, "https://") {
		return "", fmt.Errorf("fleet: worker %q is not an http(s) base URL", w)
	}
	return w, nil
}

// Close stops the failure detector and the lease reaper. Idempotent;
// active sweeps finish on their own.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		c.bgCancel()
		c.bgWG.Wait()
	})
}

// Metrics returns the coordinator's counters under the fleet scope.
func (c *Coordinator) Metrics() metrics.Snapshot { return c.reg.Snapshot() }

// snapshotRuns copies the active-sweep set so state changes and lapsed
// leases are applied without holding the registry lock.
func (c *Coordinator) snapshotRuns() []*sweepRun {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*sweepRun, 0, len(c.runs))
	for r := range c.runs {
		out = append(out, r)
	}
	return out
}

// heartbeatLoop is the failure detector for one roster worker: every
// interval, probe its /readyz and apply the answer. Each worker has its own
// loop, so a worker whose probe hangs until the probe timeout delays no
// other worker's probes.
func (c *Coordinator) heartbeatLoop(ctx context.Context, worker string) {
	t := time.NewTicker(c.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		slots, _, ready := c.workerSlots(ctx, worker)
		if ctx.Err() != nil {
			return // a probe cut short by Close says nothing
		}
		c.applyProbe(worker, ready, slots)
	}
}

// leaseReaperLoop re-dispatches cells whose leases lapsed: the holder
// stalled (or is gone) without resolving them, so an active peer's queue
// gets them. Each sweep holds its own leases and takes back only its own
// lapsed ones. Runs only when leasing is on.
func (c *Coordinator) leaseReaperLoop(ctx context.Context) {
	interval := c.opts.LeaseTTL / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		now := time.Now()
		for _, r := range c.snapshotRuns() {
			expired := r.leases.expired(now)
			if len(expired) == 0 {
				continue
			}
			c.leaseExp.Add(uint64(len(expired)))
			if n := r.requeueExpired(expired); n > 0 {
				c.log.Printf("fleet: %d lease(s) expired; re-dispatching %d unresolved cell(s)", len(expired), n)
			}
		}
	}
}

// applyProbe feeds one heartbeat answer into the detector and applies the
// worker's state to every active sweep: a ready worker is active there,
// with its slots (the probe's answer) spawned the first time, and a
// suspect is paused. The state is applied on every answer, not only on a
// change, so a sweep that registered while the state changed catches up
// at the next tick.
func (c *Coordinator) applyProbe(worker string, ready bool, slots int) {
	st, changed := c.mem.probeResult(worker, ready)
	switch {
	case changed && ready:
		c.log.Printf("fleet: worker %s ready again; resuming dispatch", worker)
	case changed:
		c.onSuspect(worker, "heartbeat missed")
	}
	for _, r := range c.snapshotRuns() {
		switch {
		case ready:
			r.resumeWorker(worker, slots)
		case st == StateSuspect:
			r.pauseWorker(worker)
		}
	}
}

// suspectWorker reports dispatch-level evidence of trouble (a failed
// dispatch and health probe, or a 503 drain answer): the worker turns
// suspect and its dispatch pauses everywhere until a probe finds it ready.
func (c *Coordinator) suspectWorker(worker, why string) {
	if !c.mem.suspect(worker) {
		return
	}
	c.onSuspect(worker, why)
	for _, r := range c.snapshotRuns() {
		r.pauseWorker(worker)
	}
}

// onSuspect logs a worker's turn to suspect and drops its entries from the
// answer record: it may come back at the same URL without the results it
// answered (another or an empty -cachedir), so future sweeps place its
// cells by the ring again. A worker restarted between two heartbeats keeps
// its entries: it simulates those cells once more, with none of its peers
// allowed to steal them.
func (c *Coordinator) onSuspect(worker, why string) {
	c.log.Printf("fleet: worker %s suspect (%s); pausing its dispatch, its queued cells open to stealing", worker, why)
	c.answers.DeleteFunc(func(_, w string) bool { return w == worker })
}

// workerSlots probes a worker's /readyz for its advertised dispatch
// concurrency (admission-aware placement): the coordinator fills exactly
// the slots a worker advertises, so its admission queue never sheds fleet
// traffic. keeps reports whether the worker answers repeats from its reply
// memo, which is what answer affinity needs. A draining worker's /readyz
// answers not ready.
func (c *Coordinator) workerSlots(ctx context.Context, worker string) (slots int, keeps, ready bool) {
	st, err := c.client.Ready(ctx, worker)
	if err != nil || !st.Ready {
		return 0, false, false
	}
	return max(st.MaxInflight, 1), st.KeepsResults, true
}

// errBadRequest marks request-shaped failures (unknown org/benchmark,
// oversized grid) so the HTTP layer can answer 400 exactly like a worker.
type errBadRequest struct{ err error }

func (e *errBadRequest) Error() string { return e.err.Error() }
func (e *errBadRequest) Unwrap() error { return e.err }

// fleetCell is one unique sweep cell in flight across the fleet.
type fleetCell struct {
	job  runner.Job
	spec sweepapi.CellSpec
	key  string
	hash string
	// home is the worker no other worker steals this cell from while it
	// is active: the worker that answered it before, when that worker is
	// in the sweep and keeps results, or the peer a lapsed lease moved it
	// to; empty otherwise. Set by Run and requeueExpired, cleared (under
	// the sweep mutex) when the cell is re-queued or its home lets a lease
	// lapse.
	home string
}

// answerRecordBound caps the coordinator's answer record (cell hash →
// the worker that last answered it with a result): 4096 entries of a
// 64-byte hash and a shared worker URL come to about half a MiB. Like the
// workers' reply memos the record is dropped whole when full: a dropped
// entry only sends its cell to its ring owner again.
const answerRecordBound = 4096

// runStatus is a worker's dispatchability within one sweep.
type runStatus int

const (
	// runActive: dispatch loops pull from its queue.
	runActive runStatus = iota
	// runPaused: a suspect; its loops (if any) park, its queued cells stay
	// put but are open to stealing by active workers.
	runPaused
)

// runWorker is one worker's per-sweep record.
type runWorker struct {
	status  runStatus
	spawned bool // its dispatch slots are running
}

// sweepRun is the per-sweep dispatch state.
type sweepRun struct {
	co  *Coordinator
	ctx context.Context
	// dctx bounds the dispatch I/O (cell dispatches, health probes and
	// backoff waits): the sweep's context, cancelled as soon as every cell
	// has resolved. A straggler dispatch, to a hung or admission-blocked
	// worker whose cell a lapsed lease re-dispatched elsewhere, then ends at
	// once, and the worker drops the unneeded cell.
	dctx context.Context
	req  sweepapi.Request

	// leases holds this sweep's dispatch leases (nil when leasing is off):
	// a sweep that shares a cell with another holds its own lease on it.
	leases *leaseTable

	mu       sync.Mutex
	cond     *sync.Cond
	wg       sync.WaitGroup
	workers  map[string]*runWorker // every roster worker
	queues   map[string][]*fleetCell
	byHash   map[string]*fleetCell // cache hash → cell, for lease bookkeeping
	results  map[string]sweepapi.Cell
	failures map[string]runner.CellFailure
	pending  int // unresolved unique cells
	closed   bool
	fatal    error
}

// Run executes one sweep across the fleet and returns the merged
// response — cells in request order, failures key-sorted — byte-for-byte
// the response a single worker would have produced for the same request,
// under any schedule of suspicions and recoveries along the way. While
// every worker is suspect the sweep waits for one to answer, until its
// context ends. The error mirrors the worker contract: *errBadRequest for
// invalid requests, the context error on cancellation or deadline, and a
// plain error when no worker is alive at sweep start. Worker-quarantined
// cells are not an error; they appear in Response.Failures.
func (c *Coordinator) Run(ctx context.Context, req sweepapi.Request) (*sweepapi.Response, error) {
	grid, err := sweepapi.BuildGrid(req, c.opts.MaxCells)
	if err != nil {
		return nil, &errBadRequest{err: err}
	}

	// Unique cells (duplicate request cells dispatch once, like the
	// runner's singleflight).
	cells := map[string]*fleetCell{}
	order := []*fleetCell{}
	for i, j := range grid.Jobs {
		key := j.Key()
		if _, ok := cells[key]; ok {
			continue
		}
		fc := &fleetCell{job: j, spec: grid.Cells[i], key: key, hash: j.Hash()}
		cells[key] = fc
		order = append(order, fc)
	}

	dctx, cancelDispatch := context.WithCancel(ctx)
	defer cancelDispatch()
	s := &sweepRun{
		co:       c,
		ctx:      ctx,
		dctx:     dctx,
		req:      req,
		leases:   newLeaseTable(c.opts.LeaseTTL),
		workers:  map[string]*runWorker{},
		queues:   map[string][]*fleetCell{},
		byHash:   map[string]*fleetCell{},
		results:  map[string]sweepapi.Cell{},
		failures: map[string]runner.CellFailure{},
		pending:  len(order),
	}
	s.cond = sync.NewCond(&s.mu)
	for _, fc := range order {
		s.byHash[fc.hash] = fc
	}

	// Every roster worker joins the sweep. An alive worker's /readyz
	// answer sizes its dispatch slots (admission-aware placement); one that
	// is not ready turns suspect. A suspect joins paused: the cells the
	// ring gives it wait in its queue, open to stealing, until a heartbeat
	// finds it ready and it spawns its slots.
	slots := map[string]int{}
	keeps := map[string]bool{}
	for _, w := range c.opts.Workers {
		s.workers[w] = &runWorker{status: runPaused}
		if c.mem.state(w) != StateAlive {
			continue
		}
		n, k, ready := c.workerSlots(ctx, w)
		if !ready {
			c.suspectWorker(w, "not ready at sweep start")
			continue
		}
		slots[w], keeps[w] = n, k
		s.workers[w].status = runActive
	}
	if len(slots) == 0 {
		return nil, errors.New("fleet: no live workers")
	}
	// Answer affinity: a cell answered before by a worker that is in this
	// sweep and keeps results goes back to it, ahead of its unrecorded
	// cells — it answers from memory what any other worker would simulate
	// again. Every other cell goes to its ring owner.
	for _, fc := range order {
		if w, _ := c.answers.Get(fc.hash); keeps[w] {
			fc.home = w
			s.queues[w] = append(s.queues[w], fc)
		}
	}
	for _, fc := range order {
		if fc.home == "" {
			owner := c.ring.Owner(fc.key)
			s.queues[owner] = append(s.queues[owner], fc)
		}
	}

	// Register with the coordinator so state changes and lapsed leases
	// reach this sweep.
	c.mu.Lock()
	c.runs[s] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.runs, s)
		c.mu.Unlock()
	}()

	s.mu.Lock()
	for w, n := range slots {
		s.spawnLoopsLocked(w, n)
	}
	s.mu.Unlock()

	// Wake the dispatch loops when the sweep context dies so none of them
	// stays parked in cond.Wait.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.fail(ctx.Err())
		case <-watchDone:
		}
	}()

	// The sweep resolves when every unique cell has a result or a failure
	// record (or its context ended) — not when the loops drain: with every
	// worker paused under suspicion there is no runnable loop at all, and
	// the sweep simply waits for a worker to answer again.
	// Once it resolves, dispatches still in flight are stragglers whose
	// cells resolved elsewhere: cancel them rather than wait for them.
	s.mu.Lock()
	for s.pending > 0 && s.fatal == nil {
		s.cond.Wait()
	}
	s.closed = true
	fatal := s.fatal
	s.mu.Unlock()
	cancelDispatch()
	s.cond.Broadcast()
	s.wg.Wait()
	close(watchDone)
	if fatal != nil {
		return nil, fatal
	}

	resp := &sweepapi.Response{Org: req.Org, Cells: []sweepapi.Cell{}}
	for i, j := range grid.Jobs {
		cell, ok := s.results[j.Key()]
		if !ok {
			continue // quarantined; listed in Failures
		}
		cell.Benchmark = grid.Tags[i]
		resp.Cells = append(resp.Cells, cell)
	}
	if len(s.failures) > 0 {
		keys := make([]string, 0, len(s.failures))
		for k := range s.failures {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			resp.Failures = append(resp.Failures, s.failures[k])
		}
	}
	c.sweeps.Inc()
	return resp, nil
}

// resumeWorker makes a worker that a probe found ready active in this
// sweep: the first time, its n dispatch slots spawn; after a pause, its
// parked slots go on with whatever is left in its queue. No-op once the
// sweep has resolved.
func (s *sweepRun) resumeWorker(worker string, n int) {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
		s.cond.Broadcast()
	}()
	if s.closed || s.fatal != nil || s.pending == 0 {
		return
	}
	s.workers[worker].status = runActive
	s.spawnLoopsLocked(worker, n)
}

// spawnLoopsLocked starts a worker's n dispatch slots, once per sweep.
// Callers hold s.mu and have checked the run is not closed.
func (s *sweepRun) spawnLoopsLocked(worker string, n int) {
	rw := s.workers[worker]
	if rw.spawned {
		return
	}
	rw.spawned = true
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.dispatchLoop(worker)
		}()
	}
}

// pauseWorker parks a suspect's dispatch loops; its queue stays (and is
// open to stealing).
func (s *sweepRun) pauseWorker(worker string) {
	s.mu.Lock()
	s.workers[worker].status = runPaused
	s.mu.Unlock()
	s.cond.Broadcast()
}

// fail records a fatal sweep error and wakes everyone.
func (s *sweepRun) fail(err error) {
	s.mu.Lock()
	if s.fatal == nil {
		s.fatal = err
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// dispatchLoop runs one dispatch slot against one worker until the sweep
// resolves or fails.
func (s *sweepRun) dispatchLoop(worker string) {
	for {
		fc, stolen := s.next(worker)
		if fc == nil {
			return
		}
		if stolen {
			s.co.stolen.Inc()
		}
		s.dispatch(worker, fc)
	}
}

// next pops the worker's next cell, stealing from the longest other queue
// when its own is empty — the tail of a straggling (or suspect) worker's
// backlog is exactly the work that would otherwise gate sweep completion.
// Parks while this worker is paused under suspicion, and blocks while
// cells are in flight elsewhere (they may yet be requeued) or only cells
// their active homes will answer remain; returns nil when the sweep is
// resolved or fatal.
func (s *sweepRun) next(worker string) (*fleetCell, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.fatal != nil || s.closed || s.pending == 0 {
			s.cond.Broadcast()
			return nil, false
		}
		if s.workers[worker].status == runPaused {
			s.cond.Wait()
			continue
		}
		if q := s.queues[worker]; len(q) > 0 {
			fc := q[0]
			s.queues[worker] = q[1:]
			return fc, false
		}
		if fc := s.stealLocked(worker); fc != nil {
			return fc, true
		}
		s.cond.Wait()
	}
}

// stealLocked takes the last stealable cell of the queue with the most
// stealable cells, or returns nil when no queue has one. A cell is not
// stealable from an active victim that is its home: a victim that answered
// it before answers it from memory, where the thief would simulate it
// again, and a lapsed lease's holder must not take its cell back.
// A paused suspect's whole queue is stealable: its backlog is exactly what
// suspicion would otherwise stall on. Ties break by name for determinism
// of victim choice, though placement never affects results — simulation
// is deterministic per cell. Callers hold s.mu.
func (s *sweepRun) stealLocked(thief string) *fleetCell {
	stealable := func(victim string, fc *fleetCell) bool {
		return fc.home != victim || s.workers[victim].status == runPaused
	}
	victim, depth := "", 0
	for w, q := range s.queues {
		if w == thief {
			continue
		}
		n := 0
		for _, fc := range q {
			if stealable(w, fc) {
				n++
			}
		}
		if n > 0 && (n > depth || (n == depth && w < victim)) {
			victim, depth = w, n
		}
	}
	if victim == "" {
		return nil
	}
	q := s.queues[victim]
	for i := len(q) - 1; ; i-- {
		if fc := q[i]; stealable(victim, fc) {
			s.queues[victim] = append(q[:i], q[i+1:]...)
			return fc
		}
	}
}

// dispatch sends one cell to one worker, handling shedding, retries,
// draining, suspicion, and permanent rejections.
func (s *sweepRun) dispatch(worker string, fc *fleetCell) {
	attempts := 0
	for {
		if s.ended() {
			return
		}
		req := sweepapi.CellRequest(s.req, fc.spec)
		if dl, ok := s.ctx.Deadline(); ok {
			// Round up, so the worker's copy of the deadline never fires
			// before the sweep's own (see ended).
			if rem := time.Until(dl); rem > 0 {
				req.TimeoutMS = int64((rem + time.Millisecond - 1) / time.Millisecond)
			}
		}
		s.co.dispatched.Inc()
		if s.leases != nil {
			// Grant (or re-grant) the dispatch lease before the cell
			// leaves: should the worker never answer, the reaper
			// re-dispatches the cell once the grant lapses.
			s.leases.grant(fc.hash, worker, time.Now())
			s.co.leaseGrant.Inc()
		}
		resp, err := s.co.client.RunCell(s.dctx, worker, req)
		if err == nil {
			s.resolve(worker, fc, resp)
			return
		}
		if s.ended() {
			return
		}

		var shed errShed
		var perm *permanentCellError
		switch {
		case errors.As(err, &shed):
			// The worker is saturated (other tenants, other sweeps): honor
			// Retry-After and try the same worker again. Not a failure and
			// not worth a failover — admission pressure is transient.
			s.co.shedWaits.Inc()
			wait := shed.retryAfter
			if wait > 2*time.Second {
				wait = 2 * time.Second
			}
			if err := waitBackoff(s.dctx, wait); err != nil {
				// The sweep's remaining budget cannot cover the backoff:
				// fail fast with the deadline-tagged error instead of
				// sleeping into the deadline.
				s.failUnlessEnded(err)
				return
			}
			continue
		case errors.As(err, &perm):
			// The worker rejected the cell itself; no other worker will
			// accept it. Mirror the runner's invalid-config taxonomy.
			s.recordFailure(fc, runner.CellFailure{
				Key:      fc.key,
				Name:     fc.job.Name(),
				Hash:     fc.hash,
				Attempts: 1,
				Kind:     "invalid-config",
				Error:    firstLine(perm.body),
			})
			return
		case errors.Is(err, errDraining):
			// A draining worker takes no new cells: it turns suspect at
			// once, and its /readyz keeps it suspect while it drains.
			s.co.suspectWorker(worker, "draining")
			s.requeue(fc)
			return
		default:
			attempts++
			if attempts <= dispatchRetries {
				s.co.retries.Inc()
				if err := waitBackoff(s.dctx, time.Duration(attempts)*100*time.Millisecond); err != nil {
					s.failUnlessEnded(err)
					return
				}
				continue
			}
			// Out of retries: is the worker gone, or is the cell cursed?
			// A probe cut short by the sweep's end answers neither.
			healthy := s.co.client.Healthy(s.dctx, worker)
			if s.ended() {
				return
			}
			if healthy {
				s.recordFailure(fc, runner.CellFailure{
					Key:      fc.key,
					Name:     fc.job.Name(),
					Hash:     fc.hash,
					Attempts: attempts,
					Kind:     "error",
					Error:    firstLine(err.Error()),
				})
				return
			}
			// Park the worker and put the cell back: its queue is open to
			// stealing until a probe finds the worker ready again.
			s.co.suspectWorker(worker, "dispatch failed and health probe missed")
			s.requeue(fc)
			return
		}
	}
}

// ended reports whether this dispatch should stop: the sweep's context is
// done, which ends the sweep with its error, or the sweep resolved without
// it. Either way a dispatch or probe that failed after that says nothing
// about the worker or the cell, so the caller records no failure and
// suspects no one. Once the deadline has passed it waits for the context
// to catch up: a worker's 504 answers the deadline forwarded as
// timeout_ms, which is rounded up and so fires no earlier than the sweep's
// own, but the response can beat the sweep's timer.
func (s *sweepRun) ended() bool {
	if dl, ok := s.ctx.Deadline(); ok && !time.Now().Before(dl) {
		<-s.ctx.Done()
	}
	if err := s.ctx.Err(); err != nil {
		s.fail(err)
		return true
	}
	return s.dctx.Err() != nil
}

// failUnlessEnded ends the sweep with a backoff's error, unless the wait
// was cut short because the sweep itself ended (see ended).
func (s *sweepRun) failUnlessEnded(err error) {
	if !s.ended() {
		s.fail(err)
	}
}

// resolve records a worker's answer for one cell. Duplicate answers for
// the same canonical cell key (a recovered worker's stale dispatch racing
// the stolen one, or a lapsed lease's holder answering after the
// re-dispatch already failed) are dropped here and in recordFailure — the
// dedupe that guarantees no cell resolves twice whatever the suspicions.
// A result goes into the coordinator's answer record.
func (s *sweepRun) resolve(worker string, fc *fleetCell, resp *sweepapi.Response) {
	if len(resp.Failures) > 0 {
		// The worker ran the cell and quarantined it (keep-going): adopt
		// its failure record verbatim — same taxonomy, same bytes as a
		// single-node report.
		s.recordFailure(fc, resp.Failures[0])
		return
	}
	if len(resp.Cells) != 1 {
		s.recordFailure(fc, runner.CellFailure{
			Key:      fc.key,
			Name:     fc.job.Name(),
			Hash:     fc.hash,
			Attempts: 1,
			Kind:     "error",
			Error:    fmt.Sprintf("worker answered %d cells for a single-cell dispatch", len(resp.Cells)),
		})
		return
	}
	s.mu.Lock()
	if !s.resolvedLocked(fc.key) {
		s.results[fc.key] = resp.Cells[0]
		s.pending--
	}
	s.mu.Unlock()
	s.co.answers.Put(fc.hash, worker)
	s.leases.release(fc.hash)
	s.cond.Broadcast()
}

// resolvedLocked reports whether a cell already has a result or a failure
// record: the first answer resolves it, and each cell counts once towards
// pending. Callers hold s.mu.
func (s *sweepRun) resolvedLocked(key string) bool {
	_, ok := s.results[key]
	if !ok {
		_, ok = s.failures[key]
	}
	return ok
}

// recordFailure quarantines one cell fleet-side.
func (s *sweepRun) recordFailure(fc *fleetCell, cf runner.CellFailure) {
	s.co.cellsFail.Inc()
	s.mu.Lock()
	if !s.resolvedLocked(fc.key) {
		s.failures[fc.key] = cf
		s.pending--
	}
	s.mu.Unlock()
	s.leases.release(fc.hash)
	s.cond.Broadcast()
}

// requeueExpired moves the cells of lapsed leases to an active peer of
// each holder — unless they already resolved, already wait in a queue, or
// the sweep is over — and ends answer affinity on each holder whose cell it
// moves: a worker that let a lease lapse may be hung, or its admission
// slots held by another tenant's sweeps, so its idle peers must be free to
// steal every cell it still has queued, answered before or not. A moved
// cell's home is the peer, so the holder's idle slots can neither pop it
// nor steal it while the peer stays active. A cell whose holder has no
// active peer stays with the holder, on a fresh lease, so the next lapse
// looks again. Returns how many cells it moved.
func (s *sweepRun) requeueExpired(lapsed []cellLease) int {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
		s.cond.Broadcast()
	}()
	if s.closed || s.fatal != nil || s.pending == 0 {
		return 0
	}
	queued := map[*fleetCell]bool{}
	for _, q := range s.queues {
		for _, fc := range q {
			queued[fc] = true
		}
	}
	requeued := 0
	for _, l := range lapsed {
		fc := s.byHash[l.hash]
		if fc == nil || queued[fc] || s.resolvedLocked(fc.key) {
			continue
		}
		peer := s.activePeerLocked(fc.key, l.worker)
		if peer == "" {
			s.leases.grant(l.hash, l.worker, time.Now())
			continue
		}
		fc.home = peer
		s.queues[peer] = append(s.queues[peer], fc)
		for _, held := range s.queues[l.worker] {
			held.home = ""
		}
		requeued++
	}
	return requeued
}

// activePeerLocked picks the worker a lapsed lease's cell moves to: the
// cell's ring owner unless that is the holder or not active, else the
// first other active worker by name; "" when there is none. Callers hold
// s.mu.
func (s *sweepRun) activePeerLocked(key, holder string) string {
	for _, w := range append([]string{s.co.ring.Owner(key)}, s.co.ring.Workers()...) {
		if rw := s.workers[w]; w != holder && rw != nil && rw.status == runActive {
			return w
		}
	}
	return ""
}

// requeue puts one cell back onto its ring owner's queue, without a home:
// a suspect owner's queue is open to stealing.
func (s *sweepRun) requeue(fc *fleetCell) {
	s.mu.Lock()
	fc.home = ""
	owner := s.co.ring.Owner(fc.key)
	s.queues[owner] = append(s.queues[owner], fc)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// firstLine trims a message to its first line, like the runner's failure
// reports (multi-line bodies are non-deterministic across runs).
func firstLine(msg string) string {
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		return msg[:i]
	}
	return msg
}

// Handler returns the coordinator's HTTP routes: the same /sweep contract
// a worker serves (so clients are fleet-agnostic), /healthz, /readyz with
// the fleet membership picture, and /metrics.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", c.handleReadyz)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := c.reg.Snapshot().WriteJSON(w); err != nil {
			c.log.Printf("fleet: metrics: %v", err)
		}
	})
	mux.HandleFunc("/sweep", c.handleSweep)
	return mux
}

// coordReady is the coordinator's /readyz body: ready while at least one
// worker is alive, with the alive and the suspect workers.
type coordReady struct {
	Ready   bool     `json:"ready"`
	Workers []string `json:"workers"`
	Suspect []string `json:"suspect,omitempty"`
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := coordReady{
		Workers: c.mem.byState(StateAlive),
		Suspect: c.mem.byState(StateSuspect),
	}
	body.Ready = len(body.Workers) > 0
	w.Header().Set("Content-Type", "application/json")
	if !body.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if err := json.NewEncoder(w).Encode(body); err != nil {
		c.log.Printf("fleet: readyz: %v", err)
	}
}

// handleSweep serves the worker-compatible sweep contract over the fleet.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, err := sweepapi.DecodeRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	}
	defer cancel()

	resp, err := c.Run(ctx, req)
	var bad *errBadRequest
	switch {
	case err == nil:
	case errors.As(err, &bad):
		writeError(w, http.StatusBadRequest, bad.Error())
		return
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "sweep cancelled: "+err.Error())
		return
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		c.log.Printf("fleet: sweep response: %v", err)
	}
}

// writeError answers a JSON error body with the given status (same shape
// as the worker's).
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": msg}); err != nil {
		_ = err
	}
}
