//go:build unix

package runner

import (
	"bufio"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// killDrillEnv names the cache directory a re-executed test binary stores
// into; it is set only on that child.
const killDrillEnv = "CAMEO_CACHE_KILL_DRILL_DIR"

// TestDiskCacheKillDrill: a re-executed test binary stores entries and
// prints each hash once Store has returned; it is SIGKILLed at a seeded
// point, mid-run. After reopen every printed hash must load and verify:
// an acknowledged store survives the crash, whatever record it tore.
func TestDiskCacheKillDrill(t *testing.T) {
	if dir := os.Getenv(killDrillEnv); dir != "" {
		killDrillChild(dir)
		return
	}
	seed := uint64(time.Now().UnixNano())
	killAfter := 1 + rand.New(rand.NewPCG(seed, 0)).IntN(48)
	t.Logf("seed %d: SIGKILL after %d acknowledged stores", seed, killAfter)

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDiskCacheKillDrill$")
	cmd.Env = append(os.Environ(), killDrillEnv+"="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() }) // fails once the drill has killed it

	var acked []string
	lines := bufio.NewScanner(out)
	for lines.Scan() {
		h, ok := strings.CutPrefix(lines.Text(), "stored ")
		if !ok || !ValidHash(h) {
			t.Fatalf("child said %q", lines.Text())
		}
		acked = append(acked, h)
		if len(acked) == killAfter {
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cmd.Wait(); err == nil || len(acked) < killAfter {
		t.Fatalf("child exited on its own (%v) after %d stores, before the kill", err, len(acked))
	}

	c := openTestCache(t, dir)
	for i, h := range acked {
		if h != logHash(i) {
			t.Fatalf("acknowledgement %d names %s", i, h)
		}
		wantLoad(t, c, i)
	}
	if c.Len() < len(acked) {
		t.Fatalf("Len = %d, want at least the %d acknowledged", c.Len(), len(acked))
	}
	t.Logf("%d acknowledged, %d indexed, %d torn tail quarantined", len(acked), c.Len(), c.CorruptCount())
}

// killDrillChild stores entries into dir until it is killed, printing each
// hash after its Store returns. It gives up after a bounded run in case
// nobody kills it.
func killDrillChild(dir string) {
	c, err := OpenDiskCache(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	c.SetWarnWriter(io.Discard)
	for i := 0; i < 10_000; i++ {
		res := logResult(i)
		res.Org = strings.Repeat("x", 4096) // an envelope the size of a real one
		c.Store(logHash(i), res)
		if c.StoreErrorCount() != 0 {
			os.Exit(3)
		}
		fmt.Printf("stored %s\n", logHash(i))
	}
	os.Exit(4)
}
