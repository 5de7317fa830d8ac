package fleet

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cameo/internal/faultinject"
)

func TestSiteForPath(t *testing.T) {
	cases := map[string]faultinject.Site{
		"/sweep":        faultinject.SiteFleetDispatch,
		"/healthz":      faultinject.SiteFleetHeartbeat,
		"/readyz":       faultinject.SiteFleetHeartbeat,
		"/cache/abc123": faultinject.SiteFleetCacheFetch,
	}
	for path, want := range cases {
		if got := siteForPath(path); got != want {
			t.Errorf("siteForPath(%q) = %s, want %s", path, got, want)
		}
	}
}

// TestChaosTransportNilPlan: without a plan the wrapper disappears — the
// base transport is returned unchanged, so the fault-free path pays
// nothing.
func TestChaosTransportNilPlan(t *testing.T) {
	base := http.DefaultTransport
	if got := newChaosTransport(base, nil); got != base {
		t.Errorf("nil plan should return the base transport unchanged")
	}
}

// roundTrip sends one GET at path through a chaosTransport aimed at ts.
func roundTrip(t *testing.T, rt http.RoundTripper, ts *httptest.Server, path string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt.RoundTrip(req)
}

func TestChaosTransportDropAndPartition(t *testing.T) {
	var served int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		served++
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	for _, kind := range []faultinject.Kind{faultinject.Drop, faultinject.Partition} {
		rt := newChaosTransport(nil, faultinject.NewPlan(1, faultinject.Rule{
			Site: faultinject.SiteFleetHeartbeat, Kind: kind, Prob: 1,
		}))
		resp, err := roundTrip(t, rt, ts, "/healthz")
		if err == nil {
			resp.Body.Close()
			t.Fatalf("%s: request succeeded, want injected failure", kind)
		}
		var inj *errInjected
		if !errors.As(err, &inj) {
			t.Fatalf("%s: error %v, want errInjected", kind, err)
		}
		// Dispatch traffic to the same host is untouched: the rule is
		// site-scoped.
		resp, err = roundTrip(t, rt, ts, "/sweep")
		if err != nil {
			t.Fatalf("%s: dispatch request failed: %v (rule must not leak across sites)", kind, err)
		}
		resp.Body.Close()
	}
	if served == 0 {
		t.Fatal("no request reached the server")
	}
}

// TestChaosTransportPartitionWindow: match= scopes a partition to one
// worker and max= bounds it to the first N probes — after the window the
// same transport heals without any state reset, exactly what the CI
// partition drill relies on.
func TestChaosTransportPartitionWindow(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	host := ts.Listener.Addr().String()

	rt := newChaosTransport(nil, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteFleetHeartbeat, Kind: faultinject.Partition,
		Prob: 1, Match: host, MaxAttempt: 3,
	}))
	for i := 0; i < 3; i++ {
		if resp, err := roundTrip(t, rt, ts, "/healthz"); err == nil {
			resp.Body.Close()
			t.Fatalf("probe %d inside the window succeeded, want partitioned", i)
		}
	}
	resp, err := roundTrip(t, rt, ts, "/healthz")
	if err != nil {
		t.Fatalf("probe after the window failed: %v (partition must heal)", err)
	}
	resp.Body.Close()
}

func TestChaosTransportError5xx(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		t.Error("request reached the server despite error5xx injection")
	}))
	defer ts.Close()

	rt := newChaosTransport(nil, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteFleetDispatch, Kind: faultinject.Error5xx, Prob: 1,
	}))
	resp, err := roundTrip(t, rt, ts, "/sweep")
	if err != nil {
		t.Fatalf("error5xx should answer, not fail: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != `{"error":"injected 5xx"}` {
		t.Errorf("body = %s", body)
	}
}

func TestChaosTransportLatency(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	rt := newChaosTransport(nil, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteFleetDispatch, Kind: faultinject.Latency,
		Prob: 1, Delay: 60 * time.Millisecond,
	}))
	start := time.Now()
	resp, err := roundTrip(t, rt, ts, "/sweep")
	if err != nil {
		t.Fatalf("latency fault must forward after the delay: %v", err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("request completed in %s, want >= 60ms of injected latency", elapsed)
	}
}

// TestChaosTransportDeterministic: two transports over the same plan seed
// see the same fault schedule for the same request stream.
func TestChaosTransportDeterministic(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	schedule := func() []bool {
		rt := newChaosTransport(nil, faultinject.NewPlan(42, faultinject.Rule{
			Site: faultinject.SiteFleetHeartbeat, Kind: faultinject.Drop, Prob: 0.5,
		}))
		var out []bool
		for i := 0; i < 16; i++ {
			resp, err := roundTrip(t, rt, ts, "/healthz")
			if err == nil {
				resp.Body.Close()
			}
			out = append(out, err != nil)
		}
		return out
	}
	a, b := schedule(), schedule()
	var fired int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at request %d: %v vs %v", i, a, b)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Errorf("prob=0.5 fired %d/%d — schedule degenerate", fired, len(a))
	}
}
