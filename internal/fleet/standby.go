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
	"strings"
	"sync"
	"time"

	"cameo/internal/runner"
)

// StandbyOptions configures a standby coordinator.
type StandbyOptions struct {
	// Primary is the active coordinator's base URL — the process this
	// standby monitors and, on confirmed death, replaces.
	Primary string
	// Coordinator is the options template for the takeover coordinator.
	// CheckpointDir is required (the shared manifest directory is the whole
	// handoff channel: progress, roster, leases, and the epoch fence all
	// live there); Workers may be empty — the manifest's roster fills it.
	Coordinator CoordinatorOptions
	// Interval is the primary-probe cadence (<=0: 1s).
	Interval time.Duration
	// SuspectMisses/DeadMisses tune the primary's suspicion window, with
	// the same defaults as the worker failure detector. Death must be
	// *confirmed* through the full alive → suspect → dead machine before
	// takeover — a dropped probe or two never forks the fleet.
	SuspectMisses int
	DeadMisses    int
	// Log receives operational lines. Nil discards them.
	Log *log.Logger
}

// Standby is a warm-spare coordinator: it serves a holding-pattern HTTP
// surface (sweeps answer 503 "standby"), tails the primary's manifest for
// progress, and probes the primary's /healthz through the suspicion state
// machine. When the primary's death is confirmed it claims the next
// coordinator epoch in the manifest, builds a resuming Coordinator over the
// recorded roster and leases, and atomically swaps it in as its handler —
// from the fleet's point of view the coordinator simply moved. The old
// primary, should it return, reads the higher epoch from the manifest and
// steps down (split-brain refusal).
type Standby struct {
	opts StandbyOptions
	log  *log.Logger
	clnt *Client
	mem  *membership

	mu      sync.Mutex
	co      *Coordinator
	handler http.Handler

	lastDone int // manifest tail: last done-count logged
}

// NewStandby validates the options and builds a Standby. Nothing runs until
// Run.
func NewStandby(opts StandbyOptions) (*Standby, error) {
	if opts.Primary == "" {
		return nil, errors.New("fleet: standby needs the primary coordinator's URL")
	}
	p, err := normalizeWorkerURL(opts.Primary)
	if err != nil {
		return nil, fmt.Errorf("fleet: standby primary: %w", err)
	}
	opts.Primary = p
	if opts.Coordinator.CheckpointDir == "" {
		return nil, errors.New("fleet: standby needs a checkpoint dir shared with the primary (the manifest is the handoff channel)")
	}
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.Log == nil {
		opts.Log = log.New(io.Discard, "", 0)
	}
	s := &Standby{
		opts:     opts,
		log:      opts.Log,
		clnt:     NewClient(opts.Coordinator.Chaos),
		lastDone: -1,
	}
	s.mem = newMembership(opts.SuspectMisses, opts.DeadMisses, opts.Interval, opts.Coordinator.ChaosSeed, nil)
	s.mem.admit(opts.Primary)
	return s, nil
}

// Coordinator returns the takeover coordinator, nil while still standing by.
func (s *Standby) Coordinator() *Coordinator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.co
}

// TookOver reports whether the standby has promoted itself.
func (s *Standby) TookOver() bool { return s.Coordinator() != nil }

// Run monitors the primary until ctx dies or takeover happens. After a
// takeover it returns; the promoted coordinator runs on its own.
func (s *Standby) Run(ctx context.Context) {
	t := time.NewTicker(s.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		s.tailManifest()
		switch s.mem.probeResult(s.opts.Primary, s.clnt.Healthy(ctx, s.opts.Primary)) {
		case transSuspected:
			s.log.Printf("fleet: standby suspects primary %s (probe missed); confirming before takeover", s.opts.Primary)
		case transRecovered:
			s.log.Printf("fleet: primary %s answered again; standing down the suspicion", s.opts.Primary)
		case transDied:
			s.log.Printf("fleet: primary %s confirmed dead (suspicion window elapsed); taking over", s.opts.Primary)
			if err := s.takeover(); err != nil {
				// Keep monitoring: the primary is dead but takeover could
				// not complete (e.g. no roster anywhere yet). A revived
				// primary re-admits via the detector; a later manifest may
				// make takeover possible.
				s.log.Printf("fleet: takeover failed: %v (remaining standby)", err)
				continue
			}
			return
		}
	}
}

// tailManifest follows the primary's checkpoint for progress visibility —
// the standby's warm state is literally the shared manifest, so tailing it
// is both the health signal's cross-check and the operator's progress view.
func (s *Standby) tailManifest() {
	m, err := runner.ReadManifest(s.opts.Coordinator.CheckpointDir)
	if err != nil {
		return
	}
	if n := len(m.Done); n != s.lastDone {
		s.lastDone = n
		s.log.Printf("fleet: standby tailing run %.16s: %d/%d cells done", m.RunID, n, m.Total)
	}
}

// takeover promotes the standby: claim the next epoch in the manifest,
// rebuild the roster from it, and start a resuming coordinator over the
// interrupted run's progress and leases.
func (s *Standby) takeover() error {
	dir := s.opts.Coordinator.CheckpointDir
	var claim uint64 = 1
	manifest, err := runner.ReadManifest(dir)
	switch {
	case err == nil:
		if manifest.Fleet != nil && manifest.Fleet.Epoch >= claim {
			claim = manifest.Fleet.Epoch
		}
	case os.IsNotExist(err):
		// No manifest: the primary died between sweeps. Nothing to resume,
		// nothing to fence on disk yet — a fresh coordinator at epoch 2 is
		// still correct (any epoch above the primary's default 1 fences
		// it the moment it writes).
		manifest = nil
	default:
		return fmt.Errorf("fleet: reading handoff manifest: %w", err)
	}
	if e := s.opts.Coordinator.Epoch; e > claim {
		claim = e
	}
	claim++

	workers := rosterUnion(s.opts.Coordinator.Workers, manifest)
	if len(workers) == 0 {
		return errors.New("fleet: no workers known (none configured, none in the manifest)")
	}

	// Claim the epoch *before* the new coordinator touches anything: from
	// this write on, the old primary's next fence check retires it.
	if manifest != nil {
		if manifest.Fleet == nil {
			manifest.Fleet = &runner.FleetState{}
		}
		manifest.Fleet.Epoch = claim
		if err := runner.WriteManifest(dir, manifest); err != nil {
			return fmt.Errorf("fleet: claiming epoch %d: %w", claim, err)
		}
	}

	copts := s.opts.Coordinator
	copts.Workers = workers
	copts.Resume = true
	copts.Epoch = claim
	if copts.Log == nil {
		copts.Log = s.log
	}
	co, err := NewCoordinator(copts)
	if err != nil {
		return fmt.Errorf("fleet: building takeover coordinator: %w", err)
	}
	s.mu.Lock()
	s.co = co
	s.handler = co.Handler()
	s.mu.Unlock()
	s.log.Printf("fleet: standby took over as coordinator epoch %d with %d worker(s): %s",
		claim, len(workers), strings.Join(workers, ", "))
	return nil
}

// rosterUnion merges the configured workers with the manifest's recorded
// roster, minus its dead list, deduplicated and ordered by first appearance
// (configured first).
func rosterUnion(configured []string, m *runner.Manifest) []string {
	dead := map[string]bool{}
	var recorded []string
	if m != nil && m.Fleet != nil {
		for _, w := range m.Fleet.Dead {
			dead[w] = true
		}
		recorded = m.Fleet.Workers
	}
	seen := map[string]bool{}
	var out []string
	for _, w := range append(append([]string(nil), configured...), recorded...) {
		w = strings.TrimRight(strings.TrimSpace(w), "/")
		if w == "" || seen[w] || dead[w] {
			continue
		}
		seen[w] = true
		out = append(out, w)
	}
	return out
}

// Close stops the promoted coordinator, if any.
func (s *Standby) Close() {
	if co := s.Coordinator(); co != nil {
		co.Close()
	}
}

// Handler serves the standby's HTTP surface. Before takeover: /healthz
// answers ok (the standby process is alive), /readyz reports the standby
// role, and /sweep refuses with 503 — a client that hits the standby early
// learns to retry, not to fork the fleet. After takeover every route is the
// promoted coordinator's, swapped in atomically.
func (s *Standby) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		h := s.handler
		s.mu.Unlock()
		if h != nil {
			h.ServeHTTP(w, r)
			return
		}
		switch r.URL.Path {
		case "/healthz":
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "ok\n")
		case "/readyz":
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
				"ready":   false,
				"standby": true,
				"primary": s.opts.Primary,
			})
		case "/sweep":
			writeError(w, http.StatusServiceUnavailable,
				"standby coordinator: primary "+s.opts.Primary+" is (as far as known) still active")
		default:
			http.NotFound(w, r)
		}
	})
}
