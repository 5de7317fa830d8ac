package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cameo/internal/dram"
	"cameo/internal/memctrl"
	"cameo/internal/memorg"
	"cameo/internal/memsys"
	"cameo/internal/metrics"
	"cameo/internal/runner"
	"cameo/internal/sweepapi"
	"cameo/internal/system"
)

// Tracing. Spans are recorded by this package around the calls into each
// public boundary and kept in memory until the run writes them out:
//
//   - each cell: runner.Job.TryRun, called from runCell (paper) or from the
//     server.Options.Execute hook (service topology);
//   - each organization Access and each DRAM or controller device Access:
//     through a traced copy of the organization's memorg descriptor, whose
//     Build wraps the returned memsys.Organization and the NewStacked and
//     NewOffChip device factories;
//   - each result-cache Load and Store: through a runner.Cache wrapper;
//   - each HTTP request: through middleware around the server and
//     coordinator handlers.
//
// A cell makes about a million Access calls, so those spans are kept as
// per-cell aggregates (call counts, and durations parented to the cell
// span) instead of one record each. Every call is counted, but only every
// accessSample-th organization Access is timed, together with the device
// calls nested in it: reading the clock around every call would double
// the run and bury the layers' profile shares under the tracer's own.
// The period is prime so it cannot lock onto the 32-core round robin.
const accessSample = 61

// span is one recorded interval. Start and End are nanoseconds since the
// tracer was created.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Node   string `json:"node,omitempty"`
	Note   string `json:"note,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// accessAgg aggregates the Access spans of one organization instance (one
// cell): the organization's own calls and the device calls nested in them.
// The *Timed fields cover the sampled calls only.
type accessAgg struct {
	Cell      uint64 `json:"cell"`
	Layer     string `json:"layer"`
	OrgCalls  uint64 `json:"org_calls"`
	DRAMCalls uint64 `json:"dram_calls"`
	CtrlCalls uint64 `json:"memctrl_calls"`

	OrgTimed  uint64 `json:"org_timed"`
	OrgNS     int64  `json:"org_timed_ns"`
	DRAMTimed uint64 `json:"dram_timed"`
	DRAMNS    int64  `json:"dram_timed_ns"`
	CtrlTimed uint64 `json:"memctrl_timed"`
	CtrlNS    int64  `json:"memctrl_timed_ns"`

	timing bool // inside a timed organization Access
}

// traceSlots bounds the cells a tracer runs at once; each slot has its own
// registered copy of every descriptor, so a Build call finds the cell span
// it belongs to without goroutine identity.
const traceSlots = 4

// tracedKindBase lifts traced descriptor kinds clear of the registered ones.
const tracedKindBase = 1 << 20

func tracedKind(kind, slot int) int { return tracedKindBase + slot<<8 + kind }

// tracer is the in-memory span store of one traced run.
type tracer struct {
	start time.Time
	next  atomic.Uint64

	mu      sync.Mutex
	spans   []span
	aggs    []*accessAgg
	parents map[string]parentRef // cell hash → the request span serving it
	cells   []tracedCell

	slots chan int
	// slotCell and slotAgg are written and read only by the goroutine
	// holding the slot.
	slotCell [traceSlots]uint64
	slotAgg  [traceSlots]*accessAgg

	// sweep is the coordinator sweep span in flight, the parent of the
	// worker requests it causes.
	sweep atomic.Uint64
}

// tracedCell is one cell a traced run simulated.
type tracedCell struct {
	key string
	res system.Result
}

type parentRef struct {
	span uint64
	req  string
}

var registerOnce sync.Once

// activeTracer is the tracer the registered traced descriptors report to.
// The registry is filled once per process, so the descriptors reach the
// current tracer through this pointer.
var activeTracer atomic.Pointer[tracer]

func newTracer() *tracer {
	t := &tracer{
		start:   time.Now(),
		parents: map[string]parentRef{},
		slots:   make(chan int, traceSlots),
	}
	for i := 0; i < traceSlots; i++ {
		t.slots <- i
	}
	activeTracer.Store(t)
	registerOnce.Do(registerTraced)
	return t
}

// registerTraced adds, for every registered organization and slot, a copy
// of its descriptor whose Build wraps the organization and its devices.
// The copy keeps the original Env.Kind, so family builders that branch on
// it build exactly what the original would.
func registerTraced() {
	for _, orig := range memorg.All() {
		for slot := 0; slot < traceSlots; slot++ {
			memorg.Register(tracedDescriptor(orig, slot))
		}
	}
}

func tracedDescriptor(orig memorg.Descriptor, slot int) memorg.Descriptor {
	d := orig
	d.Kind = tracedKind(orig.Kind, slot)
	d.Name = fmt.Sprintf("%s~traced%d", orig.Name, slot)
	d.ShardableState = nil
	d.Geometry = func(e memorg.Env) (uint64, uint64) {
		e.Kind = orig.Kind
		return orig.Geometry(e)
	}
	if orig.Validate != nil {
		d.Validate = func(e memorg.Env) error {
			e.Kind = orig.Kind
			return orig.Validate(e)
		}
	}
	d.Build = func(e memorg.Env) (memorg.Organization, error) {
		t := activeTracer.Load()
		e.Kind = orig.Kind
		agg := &accessAgg{Cell: t.slotCell[slot], Layer: orgLayer(orig.Kind)}
		newStacked, newOffChip := e.NewStacked, e.NewOffChip
		e.NewStacked = func() (dram.Device, error) {
			dev, err := newStacked()
			if err != nil {
				return nil, err
			}
			return agg.wrapDevice(dev), nil
		}
		e.NewOffChip = func(capacity uint64) (dram.Device, error) {
			dev, err := newOffChip(capacity)
			if err != nil {
				return nil, err
			}
			return agg.wrapDevice(dev), nil
		}
		org, err := orig.Build(e)
		if err != nil {
			return nil, err
		}
		t.slotAgg[slot] = agg
		return &tracedOrg{Organization: org, agg: agg}, nil
	}
	return d
}

// orgLayer names the package that implements an organization kind.
func orgLayer(kind int) string {
	switch kind {
	case memorg.KindBaseline:
		return "memsys"
	case memorg.KindCache, memorg.KindDoubleUse:
		return "alloy"
	case memorg.KindTLMStatic, memorg.KindTLMDynamic, memorg.KindTLMFreq, memorg.KindTLMOracle:
		return "tlm"
	case memorg.KindCAMEO:
		return "cameo"
	}
	d, _ := memorg.ByKind(kind)
	return d.Name
}

// tracedOrg times each Access of the wrapped organization.
type tracedOrg struct {
	memsys.Organization
	agg *accessAgg
}

func (o *tracedOrg) Access(at uint64, req memsys.Request) uint64 {
	a := o.agg
	a.OrgCalls++
	if a.OrgCalls%accessSample != 0 {
		return o.Organization.Access(at, req)
	}
	a.timing = true
	t0 := time.Now()
	done := o.Organization.Access(at, req)
	a.OrgNS += int64(time.Since(t0))
	a.OrgTimed++
	a.timing = false
	return done
}

// RegisterMetrics forwards, so a traced cell's telemetry snapshot is the
// untraced one.
func (o *tracedOrg) RegisterMetrics(reg *metrics.Registry) {
	if src, ok := o.Organization.(memsys.MetricSource); ok {
		src.RegisterMetrics(reg)
	}
}

// tracedDevice counts each Access of a DRAM module or FR-FCFS controller
// and times those nested in a timed organization Access.
type tracedDevice struct {
	dram.Device
	agg          *accessAgg
	calls, timed *uint64
	ns           *int64
}

func (d *tracedDevice) Access(at uint64, line uint64, bytes int, isWrite bool) uint64 {
	*d.calls++
	if !d.agg.timing {
		return d.Device.Access(at, line, bytes, isWrite)
	}
	t0 := time.Now()
	done := d.Device.Access(at, line, bytes, isWrite)
	*d.ns += int64(time.Since(t0))
	*d.timed++
	return done
}

// tracedExtraDevice also forwards the controller's extra instruments.
type tracedExtraDevice struct{ tracedDevice }

func (d *tracedExtraDevice) RegisterExtraMetrics(s *metrics.Scope) {
	d.Device.(dram.ExtraMetrics).RegisterExtraMetrics(s)
}

func (a *accessAgg) wrapDevice(dev dram.Device) dram.Device {
	td := tracedDevice{Device: dev, agg: a, calls: &a.DRAMCalls, timed: &a.DRAMTimed, ns: &a.DRAMNS}
	if _, ok := dev.(*memctrl.Controller); ok {
		td.calls, td.timed, td.ns = &a.CtrlCalls, &a.CtrlTimed, &a.CtrlNS
	}
	if _, ok := dev.(dram.ExtraMetrics); ok {
		return &tracedExtraDevice{td}
	}
	return &td
}

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.start)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// runCell runs one cell through runner.Job.TryRun on a traced copy of its
// organization, under a span parented to parent.
func (t *tracer) runCell(ctx context.Context, j runner.Job, parent uint64, req string) (system.Result, error) {
	slot := <-t.slots
	defer func() { t.slots <- slot }()
	id := t.newID()
	t.slotCell[slot], t.slotAgg[slot] = id, nil
	tj := j
	tj.Cfg.Org = system.OrgKind(tracedKind(int(j.Cfg.Org), slot))
	t0 := time.Now()
	res, err := tj.TryRun(ctx)
	t1 := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: "runner.exec", Req: req, Start: t.since(t0), End: t.since(t1)})
	if a := t.slotAgg[slot]; a != nil {
		t.aggs = append(t.aggs, a)
	}
	if err == nil {
		t.cells = append(t.cells, tracedCell{j.Key(), res})
	}
	t.mu.Unlock()
	return res, err
}

// traceMark is a position in the tracer's records.
type traceMark struct{ spans, aggs, cells int }

func (t *tracer) mark() traceMark {
	t.mu.Lock()
	defer t.mu.Unlock()
	return traceMark{len(t.spans), len(t.aggs), len(t.cells)}
}

// discardSince drops what was recorded after m, so a traced run can keep
// a precondition out of its per-layer metrics.
func (t *tracer) discardSince(m traceMark) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.aggs, t.cells = t.spans[:m.spans], t.aggs[:m.aggs], t.cells[:m.cells]
}

// results returns the cells the tracer ran since m, by cell key.
func (t *tracer) results(m traceMark) map[string]system.Result {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]system.Result{}
	for _, c := range t.cells[m.cells:] {
		out[c.key] = c.res
	}
	return out
}

// execute is the server.Options.Execute hook of the traced service.
func (t *tracer) execute(ctx context.Context, j runner.Job) system.Result {
	p := t.parentOf(j.Hash())
	res, err := t.runCell(ctx, j, p.span, p.req)
	if err != nil {
		panic(err) // the runner recovers it into a failed cell
	}
	return res
}

func (t *tracer) parentOf(hash string) parentRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.parents[hash]
}

// tracedCache records a span around each Load and Store of the wrapped
// result cache.
type tracedCache struct {
	inner runner.Cache
	t     *tracer
	node  string
}

func (c tracedCache) Load(hash string) (system.Result, bool) {
	t0 := time.Now()
	res, ok := c.inner.Load(hash)
	note := "miss"
	if ok {
		note = "hit"
	}
	c.record("runner.cache.load", hash, t0, note)
	return res, ok
}

func (c tracedCache) Store(hash string, res system.Result) {
	t0 := time.Now()
	c.inner.Store(hash, res)
	c.record("runner.cache.store", hash, t0, "")
}

func (c tracedCache) record(name, hash string, t0 time.Time, note string) {
	t1 := time.Now()
	p := c.t.parentOf(hash)
	c.t.add(span{ID: c.t.newID(), Parent: p.span, Name: name, Req: p.req, Node: c.node, Note: note,
		Start: c.t.since(t0), End: c.t.since(t1)})
}

// middleware records a span per HTTP request. name is "server.request" for
// a worker and "fleet.request" for the coordinator. A /sweep body is read
// to learn its cell hashes, so the cache and execution spans it causes
// find their parent.
func (t *tracer) middleware(name, node string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.newID()
		req := fmt.Sprintf("%s-%d", node, id)
		var parent uint64
		if name == "server.request" {
			parent = t.sweep.Load()
		}
		var hashes []string
		isSweep := r.Method == http.MethodPost && r.URL.Path == "/sweep"
		if isSweep {
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err == nil {
				r.Body = io.NopCloser(bytes.NewReader(body))
				var sr sweepapi.Request
				if json.Unmarshal(body, &sr) == nil && name == "server.request" {
					if g, err := sweepapi.BuildGrid(sr, 0); err == nil {
						for _, j := range g.Jobs {
							hashes = append(hashes, j.Hash())
						}
					}
				}
			}
			if name == "fleet.request" {
				t.sweep.Store(id)
			}
		}
		t.mu.Lock()
		for _, h := range hashes {
			t.parents[h] = parentRef{span: id, req: req}
		}
		t.mu.Unlock()
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t1 := time.Now()
		t.mu.Lock()
		for _, h := range hashes {
			if t.parents[h].span == id {
				delete(t.parents, h)
			}
		}
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Node: node, Note: r.URL.Path,
			Start: t.since(t0), End: t.since(t1)})
		t.mu.Unlock()
		if isSweep && name == "fleet.request" {
			t.sweep.CompareAndSwap(id, 0)
		}
	})
}

// snapshot returns copies of the recorded spans and aggregates.
func (t *tracer) snapshot() ([]span, []accessAgg) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := append([]span(nil), t.spans...)
	aggs := make([]accessAgg, len(t.aggs))
	for i, a := range t.aggs {
		aggs[i] = *a
	}
	return spans, aggs
}

// write saves the spans and access aggregates as one JSON document.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans, aggs := t.snapshot()
	data, err := json.Marshal(struct {
		Spans  []span      `json:"spans"`
		Access []accessAgg `json:"access"`
	}{spans, aggs})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), data, 0o644)
}
