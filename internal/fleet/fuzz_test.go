package fleet

import (
	"testing"
	"time"
)

// FuzzParseRetryAfter feeds arbitrary Retry-After headers to
// parseRetryAfter. Whatever a worker or an intermediary sends, the shed
// backoff must stay within [1 s, maxShedBackoff]: a negative wait retries
// a shedding worker at once, and an unbounded one stalls dispatch.
func FuzzParseRetryAfter(f *testing.F) {
	for _, seed := range []string{
		"3", "", "soon", "-5", "86400",
		"10000000000", "18446744073", "9223372036854775807",
		"Sun, 06 Nov 1994 08:49:37 GMT",
		"Fri, 31 Dec 9999 23:59:59 GMT",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		if got := parseRetryAfter(h); got < time.Second || got > maxShedBackoff {
			t.Fatalf("parseRetryAfter(%q) = %v, want in [1s, %v]", h, got, maxShedBackoff)
		}
	})
}
