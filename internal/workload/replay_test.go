package workload

import (
	"math"
	"strings"
	"testing"
	"unsafe"
)

// record captures the first n requests of src.
func record(t testing.TB, src Source, n int) *Recording {
	t.Helper()
	var w Recorder
	for i := 0; i < n; i++ {
		if err := w.Add(src.Next()); err != nil {
			t.Fatal(err)
		}
	}
	return w.Finish()
}

func TestReplayReproducesTheStream(t *testing.T) {
	spec, _ := SpecByName("lbm")
	// Enough requests to span several chunks and end inside one.
	const n = 3*chunkEntries + 17
	rec := record(t, NewStream(spec, 1024, 3, 9), n)
	if rec.Len() != n {
		t.Fatalf("Len = %d, want %d", rec.Len(), n)
	}
	live := NewStream(spec, 1024, 3, 9)
	// Two replays of one recording are independent.
	a, b := rec.Replay(), rec.Replay()
	writes := 0
	for i := 0; i < n; i++ {
		want := live.Next()
		if got := a.Next(); got != want {
			t.Fatalf("request %d: replay %+v, stream %+v", i, got, want)
		}
		if got := b.Next(); got != want {
			t.Fatalf("request %d: second replay %+v, stream %+v", i, got, want)
		}
		if want.Write {
			writes++
		}
	}
	if writes == 0 {
		t.Fatal("no writebacks recorded; the write bit went untested")
	}
}

func TestReplayPastTheEndPanics(t *testing.T) {
	spec, _ := SpecByName("gcc")
	r := record(t, NewStream(spec, 1024, 0, 1), 5).Replay()
	for i := 0; i < 5; i++ {
		r.Next()
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "past the end of its 5-request recording") {
			t.Fatalf("read past the end: panic %q", msg)
		}
	}()
	r.Next()
}

func TestRecordingEntryIsAtMost16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 16 {
		t.Fatalf("recorded entry is %d bytes, want at most 16", n)
	}
}

func TestRecorderRejectsWhatAnEntryCannotHold(t *testing.T) {
	for _, req := range []Request{
		{Gap: math.MaxUint32 + 1, VLine: 1, PC: 4},
		{Gap: 1, VLine: 1, PC: entryWrite},
	} {
		var w Recorder
		if err := w.Add(req); err == nil {
			t.Errorf("%+v recorded", req)
		}
	}
	var w Recorder
	edge := Request{Gap: math.MaxUint32, VLine: math.MaxUint64, PC: entryWrite - 1, Write: true}
	if err := w.Add(edge); err != nil {
		t.Fatal(err)
	}
	if got := w.Finish().Replay().Next(); got != edge {
		t.Fatalf("edge request replayed as %+v", got)
	}
}

func TestSpecByNameAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := SpecByName("sphinx3"); !ok {
			t.Fatal("sphinx3 missing")
		}
	})
	if allocs != 0 {
		t.Fatalf("SpecByName allocates %.1f times per lookup", allocs)
	}
}

func BenchmarkStreamNextReplay(b *testing.B) {
	spec, _ := SpecByName("mcf")
	const n = 1 << 16
	rec := record(b, NewStream(spec, 256, 0, 1), n)
	r := rec.Replay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 && i > 0 {
			r = rec.Replay()
		}
		_ = r.Next()
	}
}
