package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunErrorPathFlushesProfile(t *testing.T) {
	// Error paths must return through run() — not os.Exit — so the deferred
	// profiling stop flushes -cpuprofile into a complete gzip-framed file.
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	code := run([]string{"-cpuprofile", prof, "-exp", "no-such-experiment"})
	if code != 2 {
		t.Fatalf("run returned %d, want 2", code)
	}
	data, err := os.ReadFile(prof)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile is not a gzip stream (%d bytes): deferred stop did not run", len(data))
	}
}

// TestRunBadFlag: an unknown flag is a usage error. -resume is retired
// (rerunning over the same -cachedir continues an interrupted run), and so
// are -retries and -keep-going (each cell is attempted once, and failed
// cells are always quarantined), so they are unknown too.
func TestRunBadFlag(t *testing.T) {
	for _, flag := range []string{"-no-such-flag", "-resume", "-retries", "-keep-going"} {
		if code := run([]string{flag}); code != 2 {
			t.Fatalf("run(%s) returned %d, want 2", flag, code)
		}
	}
}

// TestRunBadOperatingPoint: a suite no cell can run is a usage error, not
// a run whose every experiment degrades.
func TestRunBadOperatingPoint(t *testing.T) {
	for _, args := range [][]string{{"-cores", "100000"}, {"-scale", "3"}} {
		if code := run(append(args, "-exp", "fig13", "-quiet")); code != 2 {
			t.Fatalf("run(%v) returned %d, want 2", args, code)
		}
	}
}
