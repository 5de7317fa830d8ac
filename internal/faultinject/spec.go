package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpec builds a plan from a compact rule string, so chaos runs can be
// requested from a command line (-chaos). Rules are ';'-separated; each is
//
//	site:kind[:opt=value]...
//
// with sites job, cacheload, cachestore, fleet/dispatch, fleet/heartbeat,
// fleet/cachefetch; kinds panic, error, hang, stall, corrupt, writefail,
// drop, latency, error5xx, partition; and options
//
//	p=0.25        firing probability (default 1)
//	match=milc    substring filter on the key (cell key at the job/cache
//	              sites; the target's host:port at the fleet sites)
//	max=2         fire only on attempts < 2 (transient fault)
//	delay=250ms   hang/stall/latency duration (those kinds; 0 = until
//	              cancelled at the job site)
//	limit=10      total fire cap
//
// Examples: "job:panic:p=0.1;cacheload:corrupt:match=milc",
// "fleet/heartbeat:partition:match=127.0.0.1:18441:max=3" (the first three
// heartbeat probes of one worker vanish — a bounded partition window).
func ParseSpec(seed uint64, spec string) (*Plan, error) {
	var rules []Rule
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		r, err := parseRule(raw)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faultinject: empty spec %q", spec)
	}
	return NewPlan(seed, rules...), nil
}

var siteNames = map[string]Site{
	"job":              SiteJobRun,
	"cacheload":        SiteCacheLoad,
	"cachestore":       SiteCacheStore,
	"fleet/dispatch":   SiteFleetDispatch,
	"fleet/heartbeat":  SiteFleetHeartbeat,
	"fleet/cachefetch": SiteFleetCacheFetch,
}

var kindNames = map[string]Kind{
	"panic":     Panic,
	"error":     Error,
	"hang":      Hang,
	"corrupt":   Corrupt,
	"writefail": WriteFail,
	"stall":     Stall,
	"drop":      Drop,
	"latency":   Latency,
	"error5xx":  Error5xx,
	"partition": Partition,
}

func parseRule(raw string) (Rule, error) {
	parts := strings.Split(raw, ":")
	if len(parts) < 2 {
		return Rule{}, fmt.Errorf("faultinject: rule %q needs site:kind", raw)
	}
	site, ok := siteNames[parts[0]]
	if !ok {
		return Rule{}, fmt.Errorf("faultinject: unknown site %q (have job, cacheload, cachestore, fleet/dispatch, fleet/heartbeat, fleet/cachefetch)", parts[0])
	}
	kind, ok := kindNames[parts[1]]
	if !ok {
		return Rule{}, fmt.Errorf("faultinject: unknown kind %q (have panic, error, hang, stall, corrupt, writefail, drop, latency, error5xx, partition)", parts[1])
	}
	r := Rule{Site: site, Kind: kind, Prob: 1}
	// An option value may itself contain ':' (match=127.0.0.1:18441): a
	// segment without '=' continues the previous option's value.
	var opts []string
	for _, seg := range parts[2:] {
		if !strings.Contains(seg, "=") && len(opts) > 0 {
			opts[len(opts)-1] += ":" + seg
			continue
		}
		opts = append(opts, seg)
	}
	for _, opt := range opts {
		k, v, found := strings.Cut(opt, "=")
		if !found {
			return Rule{}, fmt.Errorf("faultinject: option %q is not key=value", opt)
		}
		var err error
		switch k {
		case "p":
			r.Prob, err = strconv.ParseFloat(v, 64)
			// Negated so NaN, which fails every comparison, is rejected too.
			if err == nil && !(r.Prob >= 0 && r.Prob <= 1) {
				err = fmt.Errorf("probability %v out of [0,1]", r.Prob)
			}
		case "match":
			r.Match = v
		case "max":
			r.MaxAttempt, err = strconv.Atoi(v)
		case "delay":
			r.Delay, err = time.ParseDuration(v)
		case "limit":
			r.Limit, err = strconv.ParseUint(v, 10, 64)
		default:
			err = fmt.Errorf("unknown option %q", k)
		}
		if err != nil {
			return Rule{}, fmt.Errorf("faultinject: rule %q: %v", raw, err)
		}
	}
	return r, nil
}
