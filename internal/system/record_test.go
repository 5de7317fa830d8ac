package system

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cameo/internal/vm"
	"cameo/internal/workload"
)

// sameResult fails unless a and b agree byte for byte, latency histogram
// included.
func sameResult(t *testing.T, what string, a, b Result) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("%s: results differ:\n%s\n%s", what, ja, jb)
	}
	if !reflect.DeepEqual(a.Latency, b.Latency) {
		t.Fatalf("%s: latency histograms differ", what)
	}
}

// TestReplayMatchesLiveOnEveryOrganization: one recording replays to the
// live result on every registered organization and under the knobs that
// leave the streams alone.
func TestReplayMatchesLiveOnEveryOrganization(t *testing.T) {
	sp := spec(t, "milc")
	base := Config{ScaleDiv: 4096, Cores: 2, InstrPerCore: 20_000, Seed: 5}
	rec, err := Record(context.Background(), []workload.Spec{sp}, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range OrgNames() {
		org, _ := ParseOrg(name)
		cfg := base
		cfg.Org = org
		live, err := TryRun(context.Background(), sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := rec.TryRun(context.Background(), sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, name, live, replayed)
	}
	cfg := base
	cfg.Org, cfg.WarmupInstr, cfg.UseL3, cfg.FRFCFS = CAMEO, 8_000, true, true
	sameResult(t, "cameo with warm-up, L3 and FR-FCFS", Run(sp, cfg), must(rec.TryRun(context.Background(), sp, cfg)))
}

func must(res Result, err error) Result {
	if err != nil {
		panic(err)
	}
	return res
}

func TestReplayMatchesLiveForAMix(t *testing.T) {
	mix := mixOf(t, "gcc", "lbm", "sphinx3")
	cfg := quickCfg(TLMDynamic)
	rec, err := Record(context.Background(), mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "mix", RunMix(mix, cfg), must(rec.TryRunMix(context.Background(), mix, cfg)))
}

func TestReplayRejectsAnotherIdentity(t *testing.T) {
	sp := spec(t, "sphinx3")
	cfg := quickCfg(CAMEO)
	rec, err := Record(context.Background(), []workload.Spec{sp}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	if _, err := rec.TryRun(context.Background(), sp, cfg); err == nil || !strings.Contains(err.Error(), "replayed for") {
		t.Fatalf("replay under another seed: %v", err)
	}
}

func TestRecordFailsOnInvalidInputAndCancellation(t *testing.T) {
	sp := spec(t, "sphinx3")
	if _, err := Record(context.Background(), nil, quickCfg(CAMEO)); err == nil {
		t.Error("empty mix recorded")
	}
	bad := quickCfg(CAMEO)
	bad.ScaleDiv = 3
	if _, err := Record(context.Background(), []workload.Spec{sp}, bad); err == nil {
		t.Error("invalid configuration recorded")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Record(ctx, []workload.Spec{sp}, quickCfg(CAMEO)); err == nil {
		t.Error("cancelled recording returned")
	}
}

// TestStreamKeyCoversOnlyStreamFields locks StreamKey to Config by
// reflection: a new Config field fails here until it is listed below as
// changing what the cores fetch or not. Listing it wrongly either way
// fails too.
func TestStreamKeyCoversOnlyStreamFields(t *testing.T) {
	streamField := map[string]bool{
		"ScaleDiv": true, "Cores": true, "InstrPerCore": true, "Seed": true,
		"Org": false, "LLT": false, "Pred": false, "EpochAccesses": false,
		"UseL3": false, "MigrationThreshold": false, "LLTCacheEntries": false,
		"HotSwapThreshold": false, "WarmupInstr": false, "Refresh": false,
		"WriteBuffered": false, "FRFCFS": false, "UseTLB": false,
		"StackedDivisor": false, "MemPartPct": false, "HybridWays": false,
		"Shards": false,
	}
	mix := []workload.Spec{spec(t, "sphinx3")}
	base := StreamKey(mix, Config{})
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		want, listed := streamField[name]
		if !listed {
			t.Errorf("Config.%s is new: decide whether it changes the streams a core fetches and list it here", name)
			continue
		}
		cfg := Config{}
		v := reflect.ValueOf(&cfg).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(3)
		case reflect.Uint32, reflect.Uint64:
			v.SetUint(3)
		default:
			t.Fatalf("field %s has unhandled kind %s", name, v.Kind())
		}
		if got := StreamKey(mix, cfg) != base; got != want {
			t.Errorf("changing Config.%s changes the stream key: %v, want %v", name, got, want)
		}
	}
	if StreamKey(mixOf(t, "sphinx3", "milc"), Config{}) == base {
		t.Error("the spec list does not change the stream key")
	}
	tuned := mix[0]
	tuned.MPKI++
	if StreamKey([]workload.Spec{tuned}, Config{}) == base {
		t.Error("a spec's parameters do not change the stream key")
	}
}

// TestResultDoesNotPinMachine: a kept Result must let its machine — page
// tables, organization, DRAM state, cores, streams — be collected.
func TestResultDoesNotPinMachine(t *testing.T) {
	sp := spec(t, "sphinx3")
	m, err := newMachine([]workload.Spec{sp}, quickCfg(CAMEO).WithDefaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The paging layer is part of no reference cycle, so its finalizer runs
	// once the machine is unreachable.
	collected := make(chan struct{})
	runtime.SetFinalizer(m.vmm, func(*vm.Memory) { close(collected) })
	res, err := m.run(context.Background(), sp.Name, sp.Class)
	if err != nil {
		t.Fatal(err)
	}
	m = nil
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(res)
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the machine is still reachable from its Result")
		}
	}
}
