package main

import (
	"os"
	"path/filepath"
	"testing"
)

// checkProfile asserts the CPU profile at path is a complete pprof file
// (gzip-framed protobuf), not the truncated garbage left behind when a
// process exits without pprof.StopCPUProfile.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile %s is not a gzip stream (%d bytes): deferred stop did not run", path, len(data))
	}
}

func TestRunErrorPathFlushesProfile(t *testing.T) {
	// An unknown organization used to os.Exit(2) straight past the deferred
	// profiling stop, truncating -cpuprofile output. run() must return 2 and
	// still leave a valid profile behind.
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	if code := run([]string{"-cpuprofile", prof, "-org", "no-such-org"}); code != 2 {
		t.Fatalf("run returned %d, want 2", code)
	}
	checkProfile(t, prof)
}

func TestRunList(t *testing.T) {
	if code := run([]string{"-list"}); code != 0 {
		t.Fatalf("run -list returned %d", code)
	}
}

// TestRunBadFlag: an unknown flag is a usage error. -retries is retired
// (a run is attempted once), so it is unknown too.
func TestRunBadFlag(t *testing.T) {
	for _, flag := range []string{"-no-such-flag", "-retries"} {
		if code := run([]string{flag}); code != 2 {
			t.Fatalf("run(%s) returned %d, want 2", flag, code)
		}
	}
}

// TestNameListsSorted pins the -llt/-pred name lists that the help text
// and the bad -llt/-pred error print: sorted, the same on every run.
func TestNameListsSorted(t *testing.T) {
	if got, want := keys(lltNames), "colocated, embedded, ideal"; got != want {
		t.Errorf("llt names = %q, want %q", got, want)
	}
	if got, want := keys(predNames), "llp, perfect, sam"; got != want {
		t.Errorf("pred names = %q, want %q", got, want)
	}
}
