package fleet

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"cameo/internal/faultinject"
)

// chaosTransport is an http.RoundTripper that consults a faultinject.Plan
// before every fleet request, classifying the request into one of the
// transport sites by path:
//
//	/sweep            → fleet/dispatch
//	/healthz, /readyz → fleet/heartbeat
//	/cache/...        → fleet/cachefetch (peer transfers)
//
// The fault key is the target's host:port (so match= scopes a rule to one
// worker) and the attempt number counts that (site, host) pair's requests —
// a pure function of the plan seed plus the request stream, so a chaos
// schedule replays identically run over run. Kinds: Drop and Partition fail
// the request without sending it (the connection-refused shape a crash or a
// network partition produces), Latency sleeps the rule's Delay then forwards
// normally, Error5xx answers a synthetic 500 without reaching the server.
// A nil plan forwards everything untouched.
type chaosTransport struct {
	base http.RoundTripper
	plan *faultinject.Plan

	mu       sync.Mutex
	attempts map[string]int // site|host → requests seen
}

// newChaosTransport wraps base (nil: http.DefaultTransport) with the plan.
// A nil plan returns base unchanged, so the fault-free path pays nothing.
func newChaosTransport(base http.RoundTripper, plan *faultinject.Plan) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if plan == nil {
		return base
	}
	return &chaosTransport{base: base, plan: plan, attempts: map[string]int{}}
}

// siteForPath classifies a request path into its transport site.
func siteForPath(path string) faultinject.Site {
	switch {
	case strings.HasPrefix(path, "/cache/"):
		return faultinject.SiteFleetCacheFetch
	case path == "/healthz" || path == "/readyz":
		return faultinject.SiteFleetHeartbeat
	default:
		return faultinject.SiteFleetDispatch
	}
}

// errInjected marks a transport fault injected by the chaos plan, so logs
// and tests can tell scheduled chaos from real network weather.
type errInjected struct {
	kind faultinject.Kind
	host string
}

func (e *errInjected) Error() string {
	return fmt.Sprintf("fleet: injected %s: %s unreachable", e.kind, e.host)
}

func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	site := siteForPath(req.URL.Path)
	host := req.URL.Host
	t.mu.Lock()
	k := string(site) + "|" + host
	attempt := t.attempts[k]
	t.attempts[k] = attempt + 1
	t.mu.Unlock()

	fault, fired := t.plan.Evaluate(site, host, attempt)
	if !fired {
		return t.base.RoundTrip(req)
	}
	switch fault.Kind {
	case faultinject.Drop, faultinject.Partition:
		return nil, &errInjected{kind: fault.Kind, host: host}
	case faultinject.Latency:
		timer := time.NewTimer(fault.Delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.base.RoundTrip(req)
	case faultinject.Error5xx:
		return &http.Response{
			StatusCode: http.StatusInternalServerError,
			Status:     "500 Internal Server Error (injected)",
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"application/json"}},
			Body:    io.NopCloser(strings.NewReader(`{"error":"injected 5xx"}`)),
			Request: req,
		}, nil
	default:
		// A non-network kind bound to a fleet site (spec mistake): inject
		// nothing rather than invent semantics.
		return t.base.RoundTrip(req)
	}
}
