package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cameo/internal/runner"
	"cameo/internal/server"
	"cameo/internal/sweepapi"
	"cameo/internal/system"
)

// TestStandbyTakeoverResumesSweep is the coordinator-crash drill in unit
// form: a primary coordinator dies mid-sweep (its run context killed, its
// process closed), a standby confirms the death through the suspicion
// machine, claims the next epoch in the shared manifest, and finishes the
// sweep over the same workers — byte-identical to a single-node run, with
// every cell the primary completed served from cache rather than recomputed.
func TestStandbyTakeoverResumesSweep(t *testing.T) {
	dir := t.TempDir()
	want := singleNodeReference(t, fleetSweepBody)

	// Seed-11 cells block (until released) so the primary's run can be
	// killed with work provably outstanding; all other cells finish fast.
	var blocked atomic.Bool
	blocked.Store(true)
	gatedExec := func(ctx context.Context, j runner.Job) system.Result {
		if j.Cfg.Seed == 11 && blocked.Load() {
			<-ctx.Done()
		}
		return coordFakeExecute(ctx, j)
	}
	type node struct {
		srv  *server.Server
		ts   *httptest.Server
		tier *PeerTier
	}
	mkNode := func() *node {
		dc, err := runner.OpenDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dc.Close() })
		tier := NewPeerTier(dc, nil, time.Second)
		srv, ts := newFleetWorker(t, server.Options{Execute: gatedExec, Disk: dc, Cache: tier})
		return &node{srv: srv, ts: ts, tier: tier}
	}
	a, b := mkNode(), mkNode()
	a.tier.SetPeers([]string{b.ts.URL})
	b.tier.SetPeers([]string{a.ts.URL})
	workers := []string{a.ts.URL, b.ts.URL}

	// The primary: leased dispatch on, checkpointing into the shared dir.
	primary, err := NewCoordinator(CoordinatorOptions{
		Workers:       workers,
		CheckpointDir: dir,
		LeaseTTL:      150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var req sweepapi.Request
	if err := json.Unmarshal([]byte(fleetSweepBody), &req); err != nil {
		t.Fatal(err)
	}
	runCtx, cancelRun := context.WithTimeout(context.Background(), 900*time.Millisecond)
	defer cancelRun()
	if _, err := primary.Run(runCtx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("primary Run = %v, want deadline exceeded (the simulated crash)", err)
	}
	primary.Close() // the crash: no reaper, no heartbeats, nothing left running

	m, err := runner.ReadManifest(dir)
	if err != nil {
		t.Fatalf("no manifest after interrupted sweep: %v", err)
	}
	if len(m.Done) == 0 || len(m.Done) >= m.Total {
		t.Fatalf("interrupted manifest has %d/%d done — want a strict partial", len(m.Done), m.Total)
	}
	execBefore := counterValue(t, a.srv.Metrics(), "server/cells_executed") +
		counterValue(t, b.srv.Metrics(), "server/cells_executed")

	// The primary's health endpoint — alive until we pull the plug.
	primaryHealth := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	}))

	st, err := NewStandby(StandbyOptions{
		Primary: primaryHealth.URL,
		Coordinator: CoordinatorOptions{
			Workers:       workers,
			CheckpointDir: dir,
			LeaseTTL:      5 * time.Second,
		},
		Interval:      30 * time.Millisecond,
		SuspectMisses: 1,
		DeadMisses:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	sts := httptest.NewServer(st.Handler())
	t.Cleanup(sts.Close)
	stCtx, stCancel := context.WithCancel(context.Background())
	defer stCancel()
	go st.Run(stCtx)

	// While the primary lives, the standby holds: /readyz reports the role,
	// /sweep refuses rather than forking the fleet.
	rresp, err := http.Get(sts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready map[string]any
	if err := json.NewDecoder(rresp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if ready["standby"] != true || ready["ready"] != false {
		t.Fatalf("standby /readyz = %v, want standby:true ready:false", ready)
	}
	sresp, sbody := postJSON(t, sts.URL, fleetSweepBody)
	if sresp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(sbody), "standby") {
		t.Fatalf("pre-takeover sweep = %d %s, want 503 standby refusal", sresp.StatusCode, sbody)
	}
	if st.TookOver() {
		t.Fatal("standby took over while the primary was still healthy")
	}

	// Kill the primary's health endpoint: suspicion confirms, standby claims.
	primaryHealth.Close()
	waitFor(t, 5*time.Second, "standby takeover", st.TookOver)

	m2, err := runner.ReadManifest(dir)
	if err != nil {
		t.Fatalf("manifest unreadable after takeover: %v", err)
	}
	if m2.Fleet == nil || m2.Fleet.Epoch != 2 {
		t.Fatalf("manifest epoch after takeover = %+v, want fleet epoch 2", m2.Fleet)
	}
	if co := st.Coordinator(); co == nil || co.Epoch() != 2 {
		t.Fatalf("takeover coordinator epoch = %v, want 2", co)
	}

	// Unblock the gated cells and finish the sweep through the standby's
	// handler — the same URL clients were already using for /sweep.
	blocked.Store(false)
	resp, got := postJSON(t, sts.URL, fleetSweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-takeover sweep: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("post-takeover response differs from single-node:\nfleet:  %s\nsingle: %s", got, want)
	}

	// Every cell the primary finished was cached on the workers: the resumed
	// sweep may execute only the cells that were still outstanding (the 3
	// gated seed-11 cells), never the done ones.
	execAfter := counterValue(t, a.srv.Metrics(), "server/cells_executed") +
		counterValue(t, b.srv.Metrics(), "server/cells_executed")
	if delta := execAfter - execBefore; delta > 3 {
		t.Errorf("resumed sweep executed %d cells, want <= 3 (done cells must come from cache)", delta)
	}
}

// TestCoordinatorStepDown is the other half of split-brain refusal: an
// active coordinator that reads a higher epoch than its own from the shared
// manifest has been superseded and must stop serving sweeps.
func TestCoordinatorStepDown(t *testing.T) {
	dir := t.TempDir()
	_, w := newFleetWorker(t, server.Options{})
	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:           []string{w.URL},
		CheckpointDir:     dir,
		HeartbeatInterval: 25 * time.Millisecond,
	})
	if co.Epoch() != 1 {
		t.Fatalf("default epoch = %d, want 1", co.Epoch())
	}

	// A takeover elsewhere: someone claimed epoch 7 on the shared manifest.
	if err := runner.WriteManifest(dir, &runner.Manifest{
		Schema: runner.ManifestSchema,
		RunID:  "0000000000000000000000000000000000000000000000000000000000000000",
		Total:  1,
		Fleet:  &runner.FleetState{Epoch: 7},
	}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, "old primary step-down", co.SteppedDown)
	if got := counterValue(t, co.Metrics(), "fleet/step_downs"); got != 1 {
		t.Errorf("step_downs = %d, want 1", got)
	}

	// A stepped-down coordinator refuses sweeps outright.
	resp, body := postJSON(t, cts.URL, fleetSweepBody)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "stepped down") {
		t.Errorf("post-step-down sweep = %d %s, want 503 stepped down", resp.StatusCode, body)
	}
}

func TestStandbyValidation(t *testing.T) {
	if _, err := NewStandby(StandbyOptions{}); err == nil {
		t.Error("standby without a primary accepted")
	}
	if _, err := NewStandby(StandbyOptions{Primary: "primary:9000"}); err == nil {
		t.Error("schemeless primary URL accepted")
	}
	if _, err := NewStandby(StandbyOptions{Primary: "http://p:1"}); err == nil {
		t.Error("standby without a shared checkpoint dir accepted")
	}
}

func TestRosterUnion(t *testing.T) {
	m := &runner.Manifest{
		Schema: runner.ManifestSchema,
		Fleet: &runner.FleetState{
			Workers: []string{"http://w2", "http://w3", "http://w4"},
			Dead:    []string{"http://w4"},
		},
	}
	got := rosterUnion([]string{"http://w1", "http://w2/"}, m)
	want := []string{"http://w1", "http://w2", "http://w3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rosterUnion = %v, want %v (configured first, dead dropped, deduped)", got, want)
	}
	if got := rosterUnion(nil, nil); got != nil {
		t.Fatalf("rosterUnion(nil, nil) = %v, want nil", got)
	}
}
