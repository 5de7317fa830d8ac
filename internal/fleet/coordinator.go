package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cameo/internal/faultinject"
	"cameo/internal/metrics"
	"cameo/internal/runner"
	"cameo/internal/sweepapi"
)

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Workers are the cameod worker base URLs known at start. At least one
	// is required; more may join at runtime via POST /fleet/join.
	Workers []string
	// VNodes is the ring's virtual-node count per worker (<=0:
	// DefaultVirtualNodes).
	VNodes int
	// SlotsPerWorker caps concurrent cell dispatches per worker. <=0 means
	// admission-aware: each worker's /readyz MaxInflight, probed at sweep
	// start, so the coordinator fills exactly the slots a worker
	// advertises and its admission queue never sheds fleet traffic.
	SlotsPerWorker int
	// MaxCells caps the grid size a single request may ask for (<=0: 1024).
	MaxCells int
	// DispatchRetries is how many times a transport-failed dispatch is
	// retried against the same worker before the worker is health-probed
	// and escalated (<0: 0; default 2).
	DispatchRetries int
	// DispatchTimeout bounds one cell dispatch (0: unbounded; the sweep
	// deadline still applies).
	DispatchTimeout time.Duration
	// CheckpointDir, when non-empty, persists a cameo-manifest-v1 manifest
	// (with the fleet extension) per sweep so a restarted coordinator can
	// resume: completed cells replay from worker caches, and the manifest
	// records the live sharding picture plus the membership event log.
	CheckpointDir string
	// Resume adopts an existing manifest for the same job set instead of
	// starting over, including its fleet section: the dead list carries
	// over, and the membership event sequence continues past the highest
	// recorded seq so resumed histories never collide.
	Resume bool
	// HeartbeatInterval, when positive, runs the background failure
	// detector: every interval each alive worker's /healthz is probed, and
	// misses drive the alive → suspect → dead lifecycle. Zero disables the
	// detector and restores the legacy behaviour (a dispatch failure whose
	// health probe also fails kills the worker immediately).
	HeartbeatInterval time.Duration
	// SuspectMisses is how many consecutive heartbeat misses turn an alive
	// worker suspect (<=0: 2). A suspect keeps its ring arcs and queued
	// cells; only new dispatches pause.
	SuspectMisses int
	// DeadMisses is the total consecutive misses that turn a suspect dead
	// (<= SuspectMisses: SuspectMisses+4). Only this transition re-shards.
	DeadMisses int
	// Chaos, when non-nil, injects deterministic transport faults under
	// every coordinator request (sites fleet/dispatch, fleet/heartbeat).
	Chaos *faultinject.Plan
	// ChaosSeed seeds the failure detector's probe jitter (0 = 1). Wiring
	// it to the -chaos-seed flag keeps chaos drills replayable end to end:
	// the same seed reproduces both the fault schedule and the probe
	// timing, while distinct seeds explore distinct interleavings.
	ChaosSeed uint64
	// LeaseTTL, when positive, grants every cell dispatch a time-bounded
	// lease recorded in the manifest: which worker holds which in-flight
	// cell, until when. An expired lease makes its cell safely
	// re-dispatchable (per-key result dedupe makes double execution
	// harmless), and a crash-recovering or standby coordinator reads the
	// leases to know what was outstanding. Zero disables leasing.
	LeaseTTL time.Duration
	// Epoch is this coordinator's generation for split-brain fencing (0:
	// 1). A standby taking over claims a higher epoch in the manifest; a
	// coordinator that later reads an epoch above its own from disk has
	// been superseded and steps down instead of double-driving the fleet.
	Epoch uint64
	// Advertise is this coordinator's own base URL, used as the gossip
	// identity (observers gossip under their own name without advertising
	// themselves as cache peers). Required when GossipInterval is set.
	Advertise string
	// GossipInterval, when positive, runs the anti-entropy gossip loop: the
	// coordinator exchanges its versioned fleet view with random workers,
	// feeding the failure detector's verdicts into the rumor mill and
	// confirming (never trusting) rumors it hears back. Zero disables it.
	GossipInterval time.Duration
	// Log receives operational lines (deaths, re-shards, steals, joins).
	// Nil discards them.
	Log *log.Logger
}

// Coordinator shards sweeps across a fleet of cameod workers: consistent-
// hash placement, bounded per-worker dispatch, work-stealing off the
// longest queue when a worker goes idle, and self-healing membership — a
// suspicion-based failure detector (alive → suspect → dead; only dead
// re-shards), runtime join/re-join via POST /fleet/join, and warm
// re-sharding that pre-fetches a joiner's cells from peer caches before
// dispatch. Safe for concurrent sweeps; membership transitions observed by
// one sweep apply to every active and future sweep.
type Coordinator struct {
	opts   CoordinatorOptions
	client *Client
	log    *log.Logger
	mem    *membership
	leases *leaseTable
	gossip *Gossiper
	epoch  uint64

	// stepped latches once this coordinator discovers a higher epoch on
	// disk: a standby took over, so this instance must stop driving the
	// fleet (split-brain refusal). It answers 503 and fails active sweeps.
	stepped atomic.Bool

	mu        sync.Mutex
	runs      map[*sweepRun]struct{}
	adoptOnce sync.Once

	hbStop    chan struct{}
	hbDone    chan struct{}
	bgCancel  context.CancelFunc
	bgWG      sync.WaitGroup
	closeOnce sync.Once

	reg        *metrics.Registry
	sweeps     *metrics.Counter
	dispatched *metrics.Counter
	stolen     *metrics.Counter
	resharded  *metrics.Counter
	deaths     *metrics.Counter
	retries    *metrics.Counter
	shedWaits  *metrics.Counter
	cellsFail  *metrics.Counter
	leaseGrant *metrics.Counter
	leaseExp   *metrics.Counter
	stepDowns  *metrics.Counter
}

// NewCoordinator validates the options, builds a Coordinator, and — when
// HeartbeatInterval is set — starts the failure detector. Call Close to
// stop it.
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
	if opts.DispatchRetries < 0 {
		opts.DispatchRetries = 0
	}
	if opts.Log == nil {
		opts.Log = log.New(io.Discard, "", 0)
	}
	if opts.CheckpointDir != "" {
		// Unlike a worker (whose disk cache creates -cachedir), the
		// coordinator uses the directory only for checkpoint manifests, so
		// it must create it itself — before the first sweep fails trying to
		// write one.
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: checkpoint dir: %w", err)
		}
	}
	if opts.GossipInterval > 0 && opts.Advertise == "" {
		return nil, errors.New("fleet: gossip needs an advertise URL (the coordinator's own base URL)")
	}
	if opts.Epoch == 0 {
		opts.Epoch = 1
	}
	c := &Coordinator{
		opts:   opts,
		client: NewClient(opts.DispatchTimeout, opts.Chaos),
		log:    opts.Log,
		epoch:  opts.Epoch,
		runs:   map[*sweepRun]struct{}{},
		hbStop: make(chan struct{}),
		hbDone: make(chan struct{}),
		reg:    metrics.NewRegistry(),
	}
	sc := c.reg.Scope("fleet")
	c.sweeps = sc.Counter("sweeps_completed")
	c.dispatched = sc.Counter("cells_dispatched")
	c.stolen = sc.Counter("cells_stolen")
	c.resharded = sc.Counter("cells_resharded")
	c.deaths = sc.Counter("worker_deaths")
	c.retries = sc.Counter("dispatch_retries")
	c.shedWaits = sc.Counter("shed_backoffs")
	c.cellsFail = sc.Counter("cells_failed")
	c.leaseGrant = sc.Counter("leases_granted")
	c.leaseExp = sc.Counter("leases_expired")
	c.stepDowns = sc.Counter("step_downs")
	c.mem = newMembership(opts.SuspectMisses, opts.DeadMisses, opts.HeartbeatInterval, opts.ChaosSeed, sc)
	sc.GaugeFunc("workers_alive", func() float64 { return float64(len(c.mem.byState(StateAlive))) })
	sc.GaugeFunc("workers_suspect", func() float64 { return float64(len(c.mem.byState(StateSuspect))) })
	for _, w := range opts.Workers {
		c.mem.admit(w)
	}
	c.leases = newLeaseTable(opts.LeaseTTL)
	bgCtx, bgCancel := context.WithCancel(context.Background())
	c.bgCancel = bgCancel
	if opts.GossipInterval > 0 {
		c.gossip = NewGossiper(GossipOptions{
			Self:     opts.Advertise,
			Seeds:    opts.Workers,
			Interval: opts.GossipInterval,
			Seed:     opts.ChaosSeed,
			Observer: true,
			Chaos:    opts.Chaos,
			OnRumor:  c.onGossipRumor,
			Log:      c.log.Printf,
		})
		c.bgWG.Add(1)
		go func() {
			defer c.bgWG.Done()
			c.gossip.Run(bgCtx)
		}()
	}
	if c.leases != nil {
		c.bgWG.Add(1)
		go func() {
			defer c.bgWG.Done()
			c.leaseReaperLoop(bgCtx)
		}()
	}
	if opts.HeartbeatInterval > 0 {
		go c.heartbeatLoop()
	} else {
		close(c.hbDone)
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

// Close stops the failure detector, the gossip loop, and the lease reaper.
// Idempotent; active sweeps finish on their own.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.hbStop)
		c.bgCancel()
		if c.opts.HeartbeatInterval > 0 {
			<-c.hbDone
		}
		c.bgWG.Wait()
	})
}

// Epoch returns this coordinator's fencing generation.
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// SteppedDown reports whether this coordinator discovered it was superseded
// by a higher epoch and refused further work.
func (c *Coordinator) SteppedDown() bool { return c.stepped.Load() }

// Gossip returns the coordinator's gossiper (nil when GossipInterval is
// unset) — the Handler routes /fleet/gossip to it, and tests drive
// exchanges through it directly.
func (c *Coordinator) Gossip() *Gossiper { return c.gossip }

// Metrics returns the coordinator's counters under the fleet scope.
func (c *Coordinator) Metrics() metrics.Snapshot { return c.reg.Snapshot() }

// snapshotRuns copies the active-sweep set so membership side effects are
// applied without holding the registry lock.
func (c *Coordinator) snapshotRuns() []*sweepRun {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*sweepRun, 0, len(c.runs))
	for r := range c.runs {
		out = append(out, r)
	}
	return out
}

// heartbeatLoop is the failure detector: every interval, probe the due
// workers (all alive ones each tick; suspects and dead on their jittered
// backoff) and apply the resulting transitions.
func (c *Coordinator) heartbeatLoop() {
	defer close(c.hbDone)
	t := time.NewTicker(c.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-t.C:
		}
		// Fencing rides the heartbeat: a standby that took over has claimed
		// a higher epoch in the shared manifest, and this (possibly
		// partitioned-and-returned) primary must notice and stand down
		// before it re-drives the fleet.
		c.checkEpochFence()
		for _, w := range c.mem.due(time.Now()) {
			select {
			case <-c.hbStop:
				return
			default:
			}
			c.applyProbe(w, c.client.Healthy(context.Background(), w))
		}
	}
}

// checkEpochFence reads the shared manifest and steps down when a higher
// coordinator epoch has been claimed there. No-op without a checkpoint dir
// (nothing shared to fence on) or once already stepped down.
func (c *Coordinator) checkEpochFence() {
	if c.opts.CheckpointDir == "" || c.stepped.Load() {
		return
	}
	m, err := runner.ReadManifest(c.opts.CheckpointDir)
	if err != nil || m.Fleet == nil {
		return // no manifest (or no fleet section) — nothing claims the run
	}
	if m.Fleet.Epoch > c.epoch {
		c.stepDown(m.Fleet.Epoch)
	}
}

// stepDown retires this coordinator after a takeover: it stops accepting
// sweeps (503), fails its active runs, and never writes the manifest again
// — the new epoch's coordinator owns the run now, and two writers would be
// the exact split-brain the epochs exist to prevent.
func (c *Coordinator) stepDown(newer uint64) {
	if c.stepped.Swap(true) {
		return
	}
	c.stepDowns.Inc()
	c.log.Printf("fleet: coordinator epoch %d superseded by epoch %d on disk; stepping down", c.epoch, newer)
	err := fmt.Errorf("%w: epoch %d superseded by %d", errSteppedDown, c.epoch, newer)
	for _, r := range c.snapshotRuns() {
		r.fail(err)
	}
}

// onGossipRumor folds an adopted gossip rumor into the failure detector.
// Rumors are confirmed, never trusted: a death rumor only raises suspicion
// (the detector's own probes adjudicate), while an alive rumor at a fresh
// incarnation is first-person testimony — only the member itself bumps its
// incarnation — and re-admits exactly like a /fleet/join announcement.
func (c *Coordinator) onGossipRumor(url string, st MemberState, inc uint64) {
	worker, err := normalizeWorkerURL(url)
	if err != nil || worker == c.opts.Advertise {
		return
	}
	switch st {
	case StateAlive:
		if inc > 0 || c.mem.state(worker) == StateDead {
			// A refutation (inc > 0) or a previously-unknown joiner heard
			// about via a third party: admit/revive through the join path.
			switch c.mem.admit(worker) {
			case transJoined:
				c.log.Printf("fleet: worker %s discovered via gossip; admitting", worker)
				c.admitToRuns(worker)
			case transRejoined:
				c.log.Printf("fleet: worker %s refuted its death via gossip (incarnation %d); re-admitting", worker, inc)
				c.admitToRuns(worker)
			case transRecovered:
				c.admitToRuns(worker)
			}
		}
	case StateSuspect, StateDead:
		if c.mem.state(worker) == StateAlive {
			c.log.Printf("fleet: gossip rumors worker %s %s; confirming via probes before acting", worker, st)
			c.suspectWorker(worker)
		}
	}
}

// gossipSet publishes a locally-detected state change into the rumor mill.
func (c *Coordinator) gossipSet(worker string, st MemberState) {
	if c.gossip != nil {
		c.gossip.SetPeerState(worker, st)
	}
}

// leaseReaperLoop re-dispatches cells whose leases lapsed: the holder died
// (or stalled) without resolving them, so their queues get them back. Runs
// only when leasing is on.
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
		expired := c.leases.expired(time.Now())
		if len(expired) == 0 {
			continue
		}
		c.leaseExp.Add(uint64(len(expired)))
		requeued := 0
		for _, r := range c.snapshotRuns() {
			requeued += r.requeueExpired(expired)
		}
		if requeued > 0 {
			c.log.Printf("fleet: %d lease(s) expired; re-dispatching %d unresolved cell(s)", len(expired), requeued)
			for _, r := range c.snapshotRuns() {
				r.checkpointFleet()
			}
		}
	}
}

// applyProbe feeds one heartbeat answer into the detector and applies the
// transition to every active sweep.
func (c *Coordinator) applyProbe(worker string, ok bool) {
	switch c.mem.probeResult(worker, ok) {
	case transSuspected:
		c.log.Printf("fleet: worker %s suspect (heartbeat missed); pausing dispatch, keeping its cells", worker)
		c.gossipSet(worker, StateSuspect)
		for _, r := range c.snapshotRuns() {
			r.pauseWorker(worker)
		}
	case transDied:
		c.deaths.Inc()
		c.log.Printf("fleet: worker %s dead (suspicion window elapsed), re-sharding its cells", worker)
		c.gossipSet(worker, StateDead)
		for _, r := range c.snapshotRuns() {
			r.removeWorker(worker)
			r.checkpointFleet()
		}
	case transRecovered:
		c.log.Printf("fleet: worker %s answered again before the suspicion window elapsed; resuming (no re-shard)", worker)
		c.gossipSet(worker, StateAlive)
		c.admitToRuns(worker)
	case transRevived:
		c.log.Printf("fleet: worker %s returned from the dead (false death); re-admitting as a fresh member", worker)
		c.gossipSet(worker, StateAlive)
		c.admitToRuns(worker)
	}
}

// declareDead kills a worker immediately (deliberate departure: draining,
// or the legacy no-heartbeat dispatch-failure path) and re-shards it out
// of every active sweep.
func (c *Coordinator) declareDead(worker string) {
	if c.mem.forceDead(worker) != transDied {
		return
	}
	c.deaths.Inc()
	c.gossipSet(worker, StateDead)
	for _, r := range c.snapshotRuns() {
		r.removeWorker(worker)
		r.checkpointFleet()
	}
}

// suspectWorker reports dispatch-level evidence of trouble: the worker
// turns suspect (dispatch pauses everywhere) and the detector's probes
// decide between recovery and death.
func (c *Coordinator) suspectWorker(worker string) {
	if c.mem.suspect(worker) != transSuspected {
		return
	}
	c.log.Printf("fleet: worker %s suspect (dispatch failed and health probe missed); pausing dispatch, keeping its cells", worker)
	c.gossipSet(worker, StateSuspect)
	for _, r := range c.snapshotRuns() {
		r.pauseWorker(worker)
	}
}

// workerSlots probes a worker's /readyz for its advertised dispatch
// concurrency (admission-aware placement), clamped by SlotsPerWorker.
func (c *Coordinator) workerSlots(ctx context.Context, worker string) (int, bool) {
	st, err := c.client.Ready(ctx, worker)
	if err != nil || !st.Ready {
		return 0, false
	}
	n := st.MaxInflight
	if c.opts.SlotsPerWorker > 0 && c.opts.SlotsPerWorker < n {
		n = c.opts.SlotsPerWorker
	}
	if n < 1 {
		n = 1
	}
	return n, true
}

// admitToRuns inserts a (re-)joined worker into every active sweep: the
// ring moves exactly the cells whose arcs the joiner's virtual nodes now
// own (the PR-6 remap bound — no other worker's cells move), those cells'
// cache hashes are warm-pushed so the joiner pre-fetches finished results
// from its peers before anything dispatches, and only then does dispatch
// to the joiner resume.
func (c *Coordinator) admitToRuns(worker string) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	slots, ready := c.workerSlots(ctx, worker)
	if !ready {
		// Joined but not admitting sweeps yet: leave it in the ring for
		// future sweeps; this run proceeds without it.
		c.log.Printf("fleet: worker %s joined but /readyz not answering; deferring its dispatch", worker)
		return
	}
	var peers []string
	for _, p := range c.mem.ringMembers() {
		if p != worker {
			peers = append(peers, p)
		}
	}
	for _, r := range c.snapshotRuns() {
		hashes := r.addWorker(worker, slots)
		if len(hashes) > 0 {
			resp, err := c.client.Warm(ctx, worker, sweepapi.WarmRequest{Hashes: hashes, Peers: peers})
			if err != nil {
				c.log.Printf("fleet: warm push to %s failed: %v (its cells compute cold)", worker, err)
			} else {
				c.log.Printf("fleet: warmed %s: %d/%d cells pre-fetched from peers", worker, resp.Hits, len(hashes))
			}
		}
		r.activateWorker(worker)
		r.checkpointFleet()
	}
}

// errSteppedDown answers sweeps on a coordinator that lost its epoch race:
// a standby claimed the run, and this instance refuses to double-drive it.
var errSteppedDown = errors.New("fleet: coordinator stepped down (superseded by a newer epoch)")

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
}

// runStatus is a worker's dispatchability within one sweep.
type runStatus int

const (
	// runActive: dispatch loops pull from its queue.
	runActive runStatus = iota
	// runPaused: a suspect (or still-warming joiner); its loops park, its
	// queued cells stay put but remain stealable by idle workers.
	runPaused
	// runGone: dead for this sweep; queue re-sharded, loops exited.
	runGone
)

// runWorker is one worker's per-sweep record.
type runWorker struct {
	status runStatus
}

// sweepRun is the per-sweep dispatch state.
type sweepRun struct {
	co  *Coordinator
	ctx context.Context
	req sweepapi.Request

	mu       sync.Mutex
	cond     *sync.Cond
	wg       sync.WaitGroup
	ring     *Ring
	workers  map[string]*runWorker
	queues   map[string][]*fleetCell
	byHash   map[string]*fleetCell // cache hash → cell, for lease bookkeeping
	results  map[string]sweepapi.Cell
	failures map[string]runner.CellFailure
	pending  int // unresolved unique cells
	closed   bool
	fatal    error

	cp *runner.Checkpoint
}

// Run executes one sweep across the fleet and returns the merged
// response — cells in request order, failures key-sorted — byte-for-byte
// the response a single worker would have produced for the same request,
// under any membership schedule (joins, suspicions, deaths, re-joins)
// along the way. The error mirrors the worker contract: *errBadRequest
// for invalid requests, the context error on cancellation, a plain error
// when the whole fleet is lost. Worker-quarantined cells are not an
// error; they appear in Response.Failures.
func (c *Coordinator) Run(ctx context.Context, req sweepapi.Request) (*sweepapi.Response, error) {
	if c.stepped.Load() {
		return nil, errSteppedDown
	}
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

	s := &sweepRun{
		co:       c,
		ctx:      ctx,
		req:      req,
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

	if c.opts.CheckpointDir != "" {
		cp, err := runner.OpenCheckpoint(c.opts.CheckpointDir, grid.Jobs, c.opts.Resume)
		if err != nil {
			return nil, err
		}
		s.cp = cp
		if c.opts.Resume {
			// Adopt the interrupted run's membership history once: its
			// dead list carries over and the event sequence continues.
			c.adoptOnce.Do(func() { c.mem.adoptPrior(cp.Fleet()) })
		}
	}

	// Build the ring over the current membership and probe each worker's
	// admission state: the advertised MaxInflight sizes its dispatch slots
	// (admission-aware placement). A worker that cannot answer /readyz is
	// excluded — immediately dead in legacy mode, merely suspect (and
	// re-admittable mid-sweep) when the failure detector runs.
	members := c.mem.ringMembers()
	if len(members) == 0 {
		return nil, errors.New("fleet: no live workers")
	}
	s.ring = NewRing(c.opts.VNodes)
	slots := map[string]int{}
	for _, w := range members {
		n, ready := c.workerSlots(ctx, w)
		if !ready {
			if c.opts.HeartbeatInterval > 0 {
				c.log.Printf("fleet: worker %s not ready at sweep start, suspecting (the detector may re-admit it)", w)
				c.suspectWorker(w)
			} else {
				c.log.Printf("fleet: worker %s not ready at sweep start, excluding", w)
				c.declareDead(w)
			}
			continue
		}
		slots[w] = n
		s.workers[w] = &runWorker{status: runActive}
		s.ring.Add(w)
	}
	if s.ring.Len() == 0 {
		return nil, errors.New("fleet: no live workers")
	}
	for _, fc := range order {
		owner := s.ring.Owner(fc.key)
		s.queues[owner] = append(s.queues[owner], fc)
	}

	// Resuming over a crashed coordinator's manifest: adopt its outstanding
	// leases. Cells under a still-live lease are deferred — pulled out of
	// the queues until the grant lapses (the lease reaper re-queues them) —
	// so this coordinator never races a prior holder that may yet be
	// computing. Expired grants were dropped by adopt and dispatch at once.
	if s.cp != nil && c.opts.Resume && c.leases != nil {
		if fs := s.cp.Fleet(); fs != nil && len(fs.Leases) > 0 {
			deferred := map[*fleetCell]bool{}
			for _, l := range c.leases.adopt(fs.Leases, time.Now()) {
				fc := s.byHash[l.Hash]
				if fc == nil || s.cp.Done(l.Hash) {
					// Not this sweep's cell, or already resolved by the
					// prior coordinator: nothing to wait for.
					c.leases.release(l.Hash)
					continue
				}
				deferred[fc] = true
			}
			if len(deferred) > 0 {
				for w, q := range s.queues {
					kept := q[:0]
					for _, fc := range q {
						if !deferred[fc] {
							kept = append(kept, fc)
						}
					}
					s.queues[w] = kept
				}
				c.log.Printf("fleet: resumed with %d cell(s) under live leases; deferring them until the grants lapse", len(deferred))
			}
		}
	}

	// Register with the coordinator so membership transitions reach this
	// sweep, then persist the starting picture.
	c.mu.Lock()
	c.runs[s] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.runs, s)
		c.mu.Unlock()
	}()
	s.checkpointFleet()

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
	// record (or something fatal happened) — not when the loops drain:
	// with every member paused under suspicion there may be moments with
	// no runnable loop at all, and the sweep must simply wait them out.
	s.mu.Lock()
	for s.pending > 0 && s.fatal == nil {
		s.cond.Wait()
	}
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
	close(watchDone)

	s.mu.Lock()
	fatal := s.fatal
	s.mu.Unlock()
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
	if len(resp.Failures) == 0 && s.cp != nil {
		if err := s.cp.Finish(); err != nil {
			c.log.Printf("fleet: removing manifest: %v", err)
		}
	}
	c.sweeps.Inc()
	return resp, nil
}

// spawnLoopsLocked starts n dispatch slots for a worker. Callers hold s.mu
// and have checked the run is not closed.
func (s *sweepRun) spawnLoopsLocked(worker string, n int) {
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.dispatchLoop(worker)
		}()
	}
}

// addWorker inserts a (re-)joining worker into this sweep, paused: it
// becomes a ring member, exactly the queued cells whose arcs it now owns
// move to its queue (no other queue changes — the consistent-hashing remap
// bound), and its dispatch loops spawn parked. Returns the cache hashes of
// the cells it received so the caller can warm-push them before
// activateWorker releases dispatch. Returns nil when the worker is already
// a member or the sweep has resolved.
func (s *sweepRun) addWorker(worker string, slots int) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.fatal != nil || s.pending == 0 {
		return nil
	}
	if rw, ok := s.workers[worker]; ok && rw.status != runGone {
		return nil
	}
	s.workers[worker] = &runWorker{status: runPaused}
	s.ring.Add(worker)
	var moved []*fleetCell
	for ow, q := range s.queues {
		if ow == worker {
			continue
		}
		kept := q[:0]
		for _, fc := range q {
			if s.ring.Owner(fc.key) == worker {
				moved = append(moved, fc)
			} else {
				kept = append(kept, fc)
			}
		}
		s.queues[ow] = kept
	}
	hashes := make([]string, 0, len(moved))
	for _, fc := range moved {
		s.queues[worker] = append(s.queues[worker], fc)
		hashes = append(hashes, fc.hash)
	}
	sort.Strings(hashes)
	s.spawnLoopsLocked(worker, slots)
	return hashes
}

// activateWorker releases a paused worker's dispatch loops.
func (s *sweepRun) activateWorker(worker string) {
	s.mu.Lock()
	if rw, ok := s.workers[worker]; ok && rw.status == runPaused {
		rw.status = runActive
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// pauseWorker parks a suspect's dispatch loops; its queue stays (and stays
// stealable).
func (s *sweepRun) pauseWorker(worker string) {
	s.mu.Lock()
	if rw, ok := s.workers[worker]; ok && rw.status == runActive {
		rw.status = runPaused
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// removeWorker re-shards a dead worker's backlog across the survivors via
// the ring — only its cells move, everyone else's stay put. Idempotent.
func (s *sweepRun) removeWorker(worker string) {
	s.mu.Lock()
	rw, ok := s.workers[worker]
	if !ok || rw.status == runGone {
		s.mu.Unlock()
		return
	}
	rw.status = runGone
	s.ring.Remove(worker)
	orphans := s.queues[worker]
	delete(s.queues, worker)
	if s.ring.Len() == 0 {
		if s.pending > 0 {
			s.fatalLocked(errors.New("fleet: all workers lost"))
		}
		s.mu.Unlock()
		return
	}
	for _, fc := range orphans {
		owner := s.ring.Owner(fc.key)
		s.queues[owner] = append(s.queues[owner], fc)
		s.co.resharded.Inc()
	}
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
// resolves, the worker dies, or the sweep fails.
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
// cells are in flight elsewhere (they may yet be requeued); returns nil
// when the sweep is resolved, fatal, or this worker is gone.
func (s *sweepRun) next(worker string) (*fleetCell, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		rw := s.workers[worker]
		if s.fatal != nil || s.closed || s.pending == 0 || rw == nil || rw.status == runGone {
			s.cond.Broadcast()
			return nil, false
		}
		if rw.status == runPaused {
			s.cond.Wait()
			continue
		}
		if q := s.queues[worker]; len(q) > 0 {
			fc := q[0]
			s.queues[worker] = q[1:]
			return fc, false
		}
		// Steal from the deepest queue (ties break by name for
		// determinism of victim choice, though placement never affects
		// results — simulation is deterministic per cell). Paused
		// suspects are valid victims: their backlog is exactly what
		// suspicion would otherwise stall on.
		victim := ""
		depth := 0
		for w, q := range s.queues {
			if w == worker || len(q) == 0 {
				continue
			}
			if vw, ok := s.workers[w]; !ok || vw.status == runGone {
				continue
			}
			if len(q) > depth || (len(q) == depth && w < victim) {
				victim, depth = w, len(q)
			}
		}
		if victim != "" {
			q := s.queues[victim]
			fc := q[len(q)-1]
			s.queues[victim] = q[:len(q)-1]
			return fc, true
		}
		s.cond.Wait()
	}
}

// dispatch sends one cell to one worker, handling shedding, retries,
// worker loss, suspicion, and permanent rejections.
func (s *sweepRun) dispatch(worker string, fc *fleetCell) {
	attempts := 0
	for {
		if err := s.ctx.Err(); err != nil {
			s.fail(err)
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
		if s.co.leases != nil {
			// Grant (or re-grant) the dispatch lease and persist it before
			// the cell leaves: a coordinator crashing mid-dispatch must
			// leave a manifest that says exactly which cells were in whose
			// hands, and until when those grants fence re-dispatch.
			s.co.leases.grant(fc.hash, worker, time.Now())
			s.co.leaseGrant.Inc()
			s.checkpointFleet()
		}
		resp, err := s.co.client.RunCell(s.ctx, worker, req)
		if err == nil {
			s.resolve(fc, resp)
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
			if err := waitBackoff(s.ctx, wait); err != nil {
				// The sweep's remaining budget cannot cover the backoff:
				// fail fast with the deadline-tagged error instead of
				// sleeping into the deadline.
				s.fail(err)
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
			// A draining worker is leaving on purpose — no suspicion
			// window applies; it is dead to the fleet now.
			s.co.log.Printf("fleet: worker %s draining, re-sharding its cells", worker)
			s.co.declareDead(worker)
			s.requeue(worker, fc)
			return
		default:
			attempts++
			if attempts <= s.co.opts.DispatchRetries {
				s.co.retries.Inc()
				if err := waitBackoff(s.ctx, time.Duration(attempts)*100*time.Millisecond); err != nil {
					s.fail(err)
					return
				}
				continue
			}
			// Out of retries: is the worker gone, or is the cell cursed?
			// A probe cut short by the sweep's own end answers neither.
			healthy := s.co.client.Healthy(s.ctx, worker)
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
			if s.co.opts.HeartbeatInterval > 0 {
				// Suspicion mode: never kill on one bad dispatch — a
				// dropped connection or a GC pause is not a crash. Park
				// the worker, put the cell back (its queue is stealable),
				// and let the failure detector adjudicate.
				s.co.suspectWorker(worker)
				s.requeue(worker, fc)
				return
			}
			// Legacy mode (no detector): the probe is all the evidence
			// there will be; declare the worker dead and re-shard.
			s.co.log.Printf("fleet: worker %s lost (%v), re-sharding its cells", worker, err)
			s.co.declareDead(worker)
			s.requeue(worker, fc)
			return
		}
	}
}

// ended reports whether the sweep's context is done, ending the sweep with
// its error if so: a dispatch or probe that failed after that says nothing
// about the worker or the cell. Once the deadline has passed it waits for
// the context to catch up: a worker's 504 answers the deadline forwarded
// as timeout_ms, which is rounded up and so fires no earlier than the
// sweep's own, but the response can beat the sweep's timer.
func (s *sweepRun) ended() bool {
	if dl, ok := s.ctx.Deadline(); ok && !time.Now().Before(dl) {
		<-s.ctx.Done()
	}
	if err := s.ctx.Err(); err != nil {
		s.fail(err)
		return true
	}
	return false
}

// resolve records a worker's answer for one cell. Duplicate answers for
// the same canonical cell key (a re-joined worker's stale dispatch racing
// the re-assigned one) are dropped here — the dedupe that guarantees no
// cell resolves twice whatever the membership churn.
func (s *sweepRun) resolve(fc *fleetCell, resp *sweepapi.Response) {
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
	if _, dup := s.results[fc.key]; !dup {
		s.results[fc.key] = resp.Cells[0]
		s.pending--
	}
	s.mu.Unlock()
	s.co.leases.release(fc.hash)
	s.cp.MarkDone(fc.hash)
	s.cond.Broadcast()
}

// recordFailure quarantines one cell fleet-side.
func (s *sweepRun) recordFailure(fc *fleetCell, cf runner.CellFailure) {
	s.co.cellsFail.Inc()
	s.mu.Lock()
	if _, dup := s.failures[fc.key]; !dup {
		s.failures[fc.key] = cf
		s.pending--
	}
	s.mu.Unlock()
	s.co.leases.release(fc.hash)
	s.cond.Broadcast()
}

// requeueExpired puts the cells of lapsed leases back onto their ring
// owners' queues — unless they already resolved, already wait in a queue,
// or the sweep is over. Returns how many cells it re-queued.
func (s *sweepRun) requeueExpired(hashes []string) int {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
		s.cond.Broadcast()
	}()
	if s.closed || s.fatal != nil || s.pending == 0 || s.ring.Len() == 0 {
		return 0
	}
	queued := map[*fleetCell]bool{}
	for _, q := range s.queues {
		for _, fc := range q {
			queued[fc] = true
		}
	}
	requeued := 0
	for _, h := range hashes {
		fc := s.byHash[h]
		if fc == nil || queued[fc] {
			continue
		}
		if _, done := s.results[fc.key]; done {
			continue
		}
		if _, failed := s.failures[fc.key]; failed {
			continue
		}
		owner := s.ring.Owner(fc.key)
		s.queues[owner] = append(s.queues[owner], fc)
		requeued++
	}
	return requeued
}

// requeue puts one cell back onto its ring owner's queue: the failing
// worker's own under suspicion (it still holds the arc), a survivor's
// after a death — the latter counts as a re-shard.
func (s *sweepRun) requeue(from string, fc *fleetCell) {
	s.mu.Lock()
	if s.ring.Len() == 0 {
		s.fatalLocked(errors.New("fleet: all workers lost"))
		s.mu.Unlock()
		return
	}
	owner := s.ring.Owner(fc.key)
	s.queues[owner] = append(s.queues[owner], fc)
	if owner != from {
		s.co.resharded.Inc()
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// fatalLocked records a fatal error with s.mu held.
func (s *sweepRun) fatalLocked(err error) {
	if s.fatal == nil {
		s.fatal = err
	}
	s.cond.Broadcast()
}

// checkpointFleet writes the current sharding picture, membership event
// log, coordinator epoch, and outstanding leases into the manifest —
// after checking the fence: a higher epoch already on disk means a standby
// took over, and writing would re-open the split brain the epoch exists to
// close. Callers must NOT hold s.mu.
func (s *sweepRun) checkpointFleet() {
	if s.cp == nil {
		return
	}
	s.co.checkEpochFence()
	if s.co.stepped.Load() {
		return
	}
	fs := &runner.FleetState{Assignments: map[string][]string{}}
	fs.Epoch = s.co.epoch
	fs.Leases = s.co.leases.snapshot()
	s.mu.Lock()
	for w, rw := range s.workers {
		if rw.status == runGone {
			continue
		}
		fs.Workers = append(fs.Workers, w)
		hashes := make([]string, 0, len(s.queues[w]))
		for _, fc := range s.queues[w] {
			hashes = append(hashes, fc.hash)
		}
		sort.Strings(hashes)
		if len(hashes) > 0 {
			fs.Assignments[w] = hashes
		}
	}
	s.mu.Unlock()
	sort.Strings(fs.Workers)
	fs.Dead = s.co.mem.byState(StateDead)
	fs.Events = s.co.mem.eventLog()
	s.cp.SetFleet(fs)
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
// a worker serves (so clients are fleet-agnostic), /fleet/join for
// runtime registration, /healthz, /readyz with the fleet membership
// picture, and /metrics.
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
	mux.HandleFunc("/fleet/join", c.handleJoin)
	mux.HandleFunc("/fleet/gossip", c.handleGossip)
	return mux
}

// handleGossip serves the anti-entropy exchange on the coordinator side:
// workers (and the standby) push their views here and take the
// coordinator's merged view home. 501 when gossip is disabled, mirroring
// the worker's unsupported-capability convention.
func (c *Coordinator) handleGossip(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if c.gossip == nil {
		writeError(w, http.StatusNotImplemented, "gossip disabled on this coordinator")
		return
	}
	var gr sweepapi.GossipRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&gr); err != nil {
		writeError(w, http.StatusBadRequest, "bad gossip body: "+err.Error())
		return
	}
	resp := c.gossip.Exchange(gr)
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		c.log.Printf("fleet: gossip response: %v", err)
	}
}

// handleJoin serves runtime worker registration: a new worker joins the
// ring, a dead one is re-admitted as a fresh member (its prior cells were
// already re-assigned; the coordinator's per-key dedupe makes double
// execution harmless), and a re-announcement from a live member is an
// idempotent no-op.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var jr sweepapi.JoinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&jr); err != nil {
		writeError(w, http.StatusBadRequest, "bad join body: "+err.Error())
		return
	}
	worker, err := normalizeWorkerURL(jr.Worker)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var status string
	switch c.mem.admit(worker) {
	case transJoined:
		status = "joined"
		c.log.Printf("fleet: worker %s joined at runtime", worker)
		c.gossipSet(worker, StateAlive)
		c.admitToRuns(worker)
	case transRejoined:
		status = "rejoined"
		c.log.Printf("fleet: worker %s re-joined after death; re-admitting as a fresh member", worker)
		c.gossipSet(worker, StateAlive)
		c.admitToRuns(worker)
	case transRecovered:
		status = "already-member"
		c.log.Printf("fleet: suspect worker %s announced itself; resuming (no re-shard)", worker)
		c.gossipSet(worker, StateAlive)
		c.admitToRuns(worker)
	default:
		status = "already-member"
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(sweepapi.JoinResponse{Status: status}); err != nil {
		c.log.Printf("fleet: join response: %v", err)
	}
}

// coordReady is the coordinator's /readyz body: ready while at least one
// worker is not dead, with the full membership picture.
type coordReady struct {
	Ready   bool     `json:"ready"`
	Workers []string `json:"workers"`
	Suspect []string `json:"suspect,omitempty"`
	Dead    []string `json:"dead,omitempty"`
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := coordReady{
		Workers: c.mem.byState(StateAlive),
		Suspect: c.mem.byState(StateSuspect),
		Dead:    c.mem.byState(StateDead),
	}
	body.Ready = len(body.Workers)+len(body.Suspect) > 0
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
	var req sweepapi.Request
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
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
	case errors.Is(err, errSteppedDown):
		writeError(w, http.StatusServiceUnavailable, err.Error())
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
