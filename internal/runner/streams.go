package runner

import (
	"context"
	"sync"

	"cameo/internal/system"
)

// planStream shares one stream identity's recording (system.StreamKey)
// among the cells of a RunAll plan that consume it. The first of them to
// execute records the streams, the others replay them, and the last to
// finish drops the recording. It lives only as long as its plan: streams
// are never shared across plans or kept by the runner, so single-use
// identities and direct Get and TryRun calls generate live, exactly as
// without sharing.
type planStream struct {
	mu sync.Mutex
	// pending counts the plan's cells of this identity not yet finished.
	pending int
	// rec is published only once complete; nil before that and after the
	// last cell finishes.
	rec *system.Recording
	// building is non-nil while a cell records, and closed when it stops.
	building chan struct{}
	// failed marks a recording that did not complete: the remaining cells
	// generate live.
	failed bool
}

// planStreams returns, aligned with unique, the shared stream of every
// cell whose identity at least one other cell of the plan also consumes,
// and nil for the rest. Cells already memoized will not execute, so they
// do not count.
func (r *Runner) planStreams(unique []Job, keys []string) []*planStream {
	out := make([]*planStream, len(unique))
	if len(unique) < 2 {
		return out
	}
	ids := make([]string, len(unique))
	for i, j := range unique {
		ids[i] = system.StreamKey(j.Specs, j.Cfg)
	}
	count := map[string]int{}
	r.mu.Lock()
	for i, id := range ids {
		if _, memo := r.done[keys[i]]; memo {
			ids[i] = ""
		} else {
			count[id]++
		}
	}
	r.mu.Unlock()
	shared := map[string]*planStream{}
	for i, id := range ids {
		if count[id] < 2 {
			continue
		}
		if shared[id] == nil {
			shared[id] = &planStream{pending: count[id]}
		}
		out[i] = shared[id]
	}
	return out
}

// recording returns the identity's recording for a cell about to execute,
// recording it first through record when no cell has yet and another cell
// still will use it. nil means the cell generates its streams live: p is
// nil, this is the identity's last cell, recording failed, or ctx ended
// while another cell was recording. A recording that panics or fails is
// never published.
func (p *planStream) recording(ctx context.Context, j Job, record func(context.Context, Job) (*system.Recording, error)) *system.Recording {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	for p.building != nil {
		wait := p.building
		p.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil
		}
		p.mu.Lock()
	}
	if p.rec != nil || p.failed || p.pending < 2 {
		rec := p.rec
		p.mu.Unlock()
		return rec
	}
	done := make(chan struct{})
	p.building = done
	p.mu.Unlock()

	var rec *system.Recording
	defer func() {
		p.mu.Lock()
		p.rec, p.failed, p.building = rec, rec == nil, nil
		p.mu.Unlock()
		close(done)
	}()
	// An error needs no report of its own: the cell then runs live, and a
	// bad configuration fails it there with the usual message.
	rec, _ = record(ctx, j)
	return rec
}

// release marks one of the plan's cells of this identity finished; the
// last one drops the recording.
func (p *planStream) release() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.pending--
	if p.pending == 0 {
		p.rec = nil
	}
	p.mu.Unlock()
}
