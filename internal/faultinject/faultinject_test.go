package faultinject

import (
	"bytes"
	"testing"
	"time"
)

func TestNilPlanInjectsNothing(t *testing.T) {
	var p *Plan
	if _, ok := p.Evaluate(SiteJobRun, "k", 0); ok {
		t.Fatal("nil plan fired")
	}
	if p.Fires() != 0 {
		t.Fatal("nil plan counted fires")
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	mk := func() *Plan {
		return NewPlan(42, Rule{Site: SiteJobRun, Kind: Panic, Prob: 0.5})
	}
	a, b := mk(), mk()
	keys := []string{"milc|org=6", "gcc|org=6", "mcf|org=0", "sphinx3|org=1"}
	for _, key := range keys {
		for attempt := 0; attempt < 4; attempt++ {
			_, fa := a.Evaluate(SiteJobRun, key, attempt)
			_, fb := b.Evaluate(SiteJobRun, key, attempt)
			if fa != fb {
				t.Fatalf("plans disagree for (%s,%d)", key, attempt)
			}
			// Re-evaluating the same triple gives the same answer.
			if _, again := a.Evaluate(SiteJobRun, key, attempt); again != fa {
				t.Fatalf("plan not stable for (%s,%d)", key, attempt)
			}
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	fires := func(seed uint64) []bool {
		p := NewPlan(seed, Rule{Site: SiteJobRun, Kind: Error, Prob: 0.5})
		out := make([]bool, len(keys))
		for i, k := range keys {
			_, out[i] = p.Evaluate(SiteJobRun, k, 0)
		}
		return out
	}
	a, b := fires(1), fires(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault schedules over 12 keys")
	}
}

func TestMaxAttemptMakesFaultTransient(t *testing.T) {
	p := NewPlan(7, Rule{Site: SiteJobRun, Kind: Panic, Prob: 1, MaxAttempt: 2})
	for attempt := 0; attempt < 2; attempt++ {
		if _, ok := p.Evaluate(SiteJobRun, "cell", attempt); !ok {
			t.Fatalf("attempt %d did not fire", attempt)
		}
	}
	if _, ok := p.Evaluate(SiteJobRun, "cell", 2); ok {
		t.Fatal("attempt 2 fired past MaxAttempt")
	}
}

func TestMatchAndSiteFilters(t *testing.T) {
	p := NewPlan(7,
		Rule{Site: SiteCacheLoad, Kind: Corrupt, Prob: 1, Match: "milc"},
	)
	if _, ok := p.Evaluate(SiteCacheLoad, "milc|org=6", 0); !ok {
		t.Fatal("matching key did not fire")
	}
	if _, ok := p.Evaluate(SiteCacheLoad, "gcc|org=6", 0); ok {
		t.Fatal("non-matching key fired")
	}
	if _, ok := p.Evaluate(SiteCacheStore, "milc|org=6", 0); ok {
		t.Fatal("wrong site fired")
	}
}

func TestLimitCapsFires(t *testing.T) {
	p := NewPlan(7, Rule{Site: SiteJobRun, Kind: Error, Prob: 1, Limit: 2})
	n := 0
	for i := 0; i < 10; i++ {
		if _, ok := p.Evaluate(SiteJobRun, "k", i); ok {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("fired %d times, want 2 (limit)", n)
	}
	if p.Fires() != 2 {
		t.Fatalf("Fires() = %d, want 2", p.Fires())
	}
}

func TestCorruptBytesDamagesDeterministically(t *testing.T) {
	orig := []byte(`{"schema":"x","payload":{"cycles":123}}`)
	a := append([]byte(nil), orig...)
	b := append([]byte(nil), orig...)
	CorruptBytes(a, "cell-key")
	CorruptBytes(b, "cell-key")
	if bytes.Equal(a, orig) {
		t.Fatal("corruption was a no-op")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("corruption not deterministic")
	}
	CorruptBytes(nil, "cell-key") // must not panic
}

// Specs shared by the table tests and FuzzParseSpec's seed corpus.
const (
	jobCacheSpec   = "job:panic:p=0.25:max=1; cacheload:corrupt:match=milc ;cachestore:writefail:limit=5;job:hang:delay=250ms;job:stall:max=1:delay=1s"
	fleetSitesSpec = "fleet/dispatch:drop:p=0.5;" +
		"fleet/heartbeat:partition:match=127.0.0.1:18441:max=3;" +
		"fleet/cachefetch:error5xx:limit=2;" +
		"fleet/dispatch:latency:delay=40ms"
)

var badSpecs = []string{
	"",
	"job",
	"nowhere:panic",
	"job:explode",
	"job:panic:p=2",
	"job:panic:p=NaN",
	"job:panic:frequency=1",
	"job:hang:delay=fast",
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec(3, jobCacheSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.rules) != 5 {
		t.Fatalf("parsed %d rules, want 5", len(p.rules))
	}
	r := p.rules[0]
	if r.Site != SiteJobRun || r.Kind != Panic || r.Prob != 0.25 || r.MaxAttempt != 1 {
		t.Fatalf("rule 0 = %+v", r)
	}
	if p.rules[1].Match != "milc" || p.rules[2].Limit != 5 {
		t.Fatalf("rules 1/2 = %+v %+v", p.rules[1], p.rules[2])
	}
	if p.rules[3].Kind != Hang || p.rules[3].Delay != 250*time.Millisecond {
		t.Fatalf("rule 3 = %+v", p.rules[3])
	}
	if p.rules[4].Kind != Stall || p.rules[4].MaxAttempt != 1 || p.rules[4].Delay != time.Second {
		t.Fatalf("rule 4 = %+v", p.rules[4])
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range badSpecs {
		if _, err := ParseSpec(1, bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Panic: "panic", Error: "error", Hang: "hang", Stall: "stall",
		Corrupt: "corrupt", WriteFail: "writefail", Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestParseSpecFleetSites: the fleet transport sites and network kinds
// parse, including a match= value that itself contains colons (a
// host:port) — the option splitter must not cut it.
func TestParseSpecFleetSites(t *testing.T) {
	p, err := ParseSpec(1, fleetSitesSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.rules) != 4 {
		t.Fatalf("parsed %d rules, want 4", len(p.rules))
	}
	if r := p.rules[0]; r.Site != SiteFleetDispatch || r.Kind != Drop || r.Prob != 0.5 {
		t.Fatalf("rule 0 = %+v", r)
	}
	if r := p.rules[1]; r.Site != SiteFleetHeartbeat || r.Kind != Partition ||
		r.Match != "127.0.0.1:18441" || r.MaxAttempt != 3 {
		t.Fatalf("rule 1 = %+v (colon-valued match must survive parsing)", r)
	}
	if r := p.rules[2]; r.Site != SiteFleetCacheFetch || r.Kind != Error5xx || r.Limit != 2 {
		t.Fatalf("rule 2 = %+v", r)
	}
	if r := p.rules[3]; r.Kind != Latency || r.Delay != 40*time.Millisecond {
		t.Fatalf("rule 3 = %+v", r)
	}

	// The partition window fires exactly on attempts 0..2 for the matched
	// host and never for another worker.
	for attempt := 0; attempt < 3; attempt++ {
		if _, ok := p.Evaluate(SiteFleetHeartbeat, "127.0.0.1:18441", attempt); !ok {
			t.Errorf("partition did not fire at attempt %d", attempt)
		}
	}
	if _, ok := p.Evaluate(SiteFleetHeartbeat, "127.0.0.1:18441", 3); ok {
		t.Error("partition fired past max=3 — the window must close")
	}
	if _, ok := p.Evaluate(SiteFleetHeartbeat, "127.0.0.1:9999", 0); ok {
		t.Error("partition fired for an unmatched worker")
	}
}

func TestNetworkKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Drop: "drop", Latency: "latency", Error5xx: "error5xx", Partition: "partition",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestRollMixesAttempts: consecutive attempts must not roll into
// all-or-nothing streaks — the finalizer exists precisely because raw
// FNV-1a clusters near-identical inputs.
func TestRollMixesAttempts(t *testing.T) {
	p := NewPlan(42, Rule{Site: SiteFleetHeartbeat, Kind: Drop, Prob: 0.5})
	fired := 0
	const n = 64
	for a := 0; a < n; a++ {
		if _, ok := p.Evaluate(SiteFleetHeartbeat, "127.0.0.1:43112", a); ok {
			fired++
		}
	}
	if fired < n/5 || fired > n*4/5 {
		t.Errorf("p=0.5 fired %d/%d across consecutive attempts — roll not mixing", fired, n)
	}
}
