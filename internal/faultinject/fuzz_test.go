package faultinject

import "testing"

// FuzzParseSpec feeds arbitrary -chaos strings to ParseSpec. It must
// never panic, and every rule it accepts must carry a probability in
// [0,1]: Evaluate rolls only when Prob < 1, which NaN fails, so an
// accepted NaN would fire on every attempt.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range append([]string{
		"job:panic:p=0.1:max=1;cacheload:corrupt:match=milc",
		"fleet/heartbeat:partition:match=127.0.0.1:18441:max=3",
		jobCacheSpec,
		fleetSitesSpec,
		"job:error:p=NaN",
	}, badSpecs...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(1, spec)
		if err != nil {
			return
		}
		for i, r := range p.rules {
			if !(r.Prob >= 0 && r.Prob <= 1) {
				t.Fatalf("ParseSpec(%q) accepted rule %d with Prob %v", spec, i, r.Prob)
			}
		}
	})
}
