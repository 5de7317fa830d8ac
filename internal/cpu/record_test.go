package cpu

import (
	"fmt"
	"testing"

	"cameo/internal/sim"
	"cameo/internal/workload"
)

// countingSource counts the requests a core reads from src.
type countingSource struct {
	src workload.Source
	n   int
}

func (c *countingSource) Next() workload.Request {
	c.n++
	return c.src.Next()
}

// TestCoreConsumesExactlyTheRecording pins Record's cut to fetch's: for
// every spec, budget and warm-up setting, a core replaying a recording
// reads every recorded request and not one more (a read past the end
// would panic in the replay).
func TestCoreConsumesExactlyTheRecording(t *testing.T) {
	for _, spec := range workload.AllSpecs() {
		for _, budget := range []uint64{3_000, 40_000} {
			for _, warmup := range []uint64{0, budget / 2} {
				t.Run(fmt.Sprintf("%s/%d/warmup=%d", spec.Name, budget, warmup), func(t *testing.T) {
					rec, err := Record(workload.NewStream(spec, 4096, 1, 7), budget)
					if err != nil {
						t.Fatal(err)
					}
					cfg := DefaultConfig(0, spec.MLP, budget)
					cfg.Warmup = warmup
					eng := sim.NewEngine()
					src := &countingSource{src: rec.Replay()}
					core := New(cfg, eng, src, fixedMem(100, nil))
					core.Start()
					eng.Run()
					if !core.Done() {
						t.Fatal("core did not finish")
					}
					if src.n != rec.Len() {
						t.Fatalf("core read %d requests, recording holds %d", src.n, rec.Len())
					}
				})
			}
		}
	}
}

// TestRecordIsTheStreamPrefix: the recording is the stream's own prefix,
// request for request.
func TestRecordIsTheStreamPrefix(t *testing.T) {
	rec, err := Record(testStream(t, "mcf"), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	live, replay := testStream(t, "mcf"), rec.Replay()
	var retired uint64
	for i := 0; i < rec.Len(); i++ {
		want, got := live.Next(), replay.Next()
		if got != want {
			t.Fatalf("request %d: replay %+v, stream %+v", i, got, want)
		}
		if !want.Write {
			retired += want.Gap
		}
		if last := i == rec.Len()-1; (retired >= 20_000) != last {
			t.Fatalf("request %d: %d retired, last=%v", i, retired, last)
		}
	}
}
