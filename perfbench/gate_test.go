package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cameo/internal/sweepapi"
)

// buildCameod compiles the cameod the serve and fleet workloads launch.
func buildCameod(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cameod")
	out, err := exec.Command("go", "build", "-o", bin, "cameo/cmd/cameod").CombinedOutput()
	if err != nil {
		t.Fatalf("building cameod: %v\n%s", err, out)
	}
	return bin
}

// chdir changes the working directory for the rest of the test.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

// runWorkload runs one short untraced workload from the repository root
// and returns its exit code and result line.
func runWorkload(t *testing.T, workload, cameod, records string) (int, result) {
	t.Helper()
	var out bytes.Buffer
	code := run([]string{
		"-workload", workload, "-seed", "1", "-seconds", "0.1", "-cameod", cameod,
		"-records", records, "-work", filepath.Join(t.TempDir(), "work"),
	}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, out.String())
	}
	return code, res
}

// TestGateCountsAlteredRecord alters one recorded value per workload — a
// paper cell's telemetry digest, a serve reply, a fleet merged cell — and
// requires the run to count exactly that operation as failed and exit
// non-zero, while the untouched record passes.
func TestGateCountsAlteredRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	chdir(t, "..") // the workloads resolve paths from the repository root
	cameod := buildCameod(t)
	for _, w := range []string{"paper", "serve", "fleet"} {
		t.Run(w, func(t *testing.T) {
			records := filepath.Join("perfbench", "records")
			if code, res := runWorkload(t, w, cameod, records); code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("untouched record: exit %d, result %+v", code, res)
			}
			rec, err := loadRecord(records, w, 1)
			if err != nil || rec == nil {
				t.Fatalf("no record for %s seed 1: %v", w, err)
			}
			key := sortedKeys(rec.Cells)[0]
			rec.Cells[key] = strings.Repeat("0", len(rec.Cells[key]))
			altered := t.TempDir()
			if err := saveRecord(altered, rec); err != nil {
				t.Fatal(err)
			}
			code, res := runWorkload(t, w, cameod, altered)
			if code == 0 || res.Correct || res.Failed != 1 {
				t.Fatalf("altered %s: exit %d, result %+v; want a non-zero exit with exactly one failed operation", key, code, res)
			}
		})
	}
}

// TestCheckReplyCountsWrongReplies feeds the reply check a correct reply,
// a reply with one value changed, a shed request and a missing cell.
func TestCheckReplyCountsWrongReplies(t *testing.T) {
	cell := sweepCell{bench: "milc", value: 3}
	good := sweepapi.Cell{Benchmark: cell.tag(), Org: "CAMEO", Cycles: 1000, Instructions: 4000, Demands: 70}
	ref := map[string]refCell{cell.tag(): {digest: replyDigest(good)}}
	bad := good
	bad.Cycles++

	cases := []struct {
		name   string
		status int
		resp   *sweepapi.Response
		failed int
	}{
		{"correct", 200, &sweepapi.Response{Cells: []sweepapi.Cell{good}}, 0},
		{"changed value", 200, &sweepapi.Response{Cells: []sweepapi.Cell{bad}}, 1},
		{"shed", 429, nil, 1},
		{"missing cell", 200, &sweepapi.Response{}, 1},
	}
	for _, c := range cases {
		g := &gate{}
		g.checkReply(c.status, c.resp, []sweepCell{cell}, ref)
		if g.attempted != 1 || g.failed != c.failed {
			t.Errorf("%s: attempted %d failed %d, want 1 and %d", c.name, g.attempted, g.failed, c.failed)
		}
	}
}

// TestRecordsExist pins the recorded outputs: the default seed and the
// held-out seed, for every workload.
func TestRecordsExist(t *testing.T) {
	for _, w := range []string{"paper", "serve", "fleet"} {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			if _, err := os.Stat(recordPath("records", w, seed)); err != nil {
				t.Errorf("%s seed %d: %v", w, seed, err)
			}
		}
	}
}
