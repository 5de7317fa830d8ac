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
	code := run([]string{"-cpuprofile", prof, "-org", "no-such-org"})
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
// (rerunning over the same -cachedir continues an interrupted sweep), so it
// is unknown too.
func TestRunBadFlag(t *testing.T) {
	for _, flag := range []string{"-no-such-flag", "-resume"} {
		if code := run([]string{flag}); code != 2 {
			t.Fatalf("run(%s) returned %d, want 2", flag, code)
		}
	}
}

func TestRunTinySweep(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.csv")
	code := run([]string{
		"-bench", "milc", "-sweep", "scale", "-values", "512",
		"-instr", "2000", "-cores", "2", "-quiet", "-out", out,
	})
	if code != 0 {
		t.Fatalf("run returned %d", code)
	}
	if st, err := os.Stat(out); err != nil || st.Size() == 0 {
		t.Fatalf("sweep CSV missing or empty: %v", err)
	}
}
