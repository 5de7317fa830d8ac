package vm

import (
	"strings"
	"testing"
)

func TestEntryStates(t *testing.T) {
	for _, tc := range []struct {
		name     string
		e        pte
		frame    uint64
		resident bool
	}{
		{"never touched", 0, 0, false},
		{"on storage", onStorage, 0, false},
		{"resident in frame 0", resident(0), 0, true},
		{"resident in the last frame", resident(maxFrames - 1), maxFrames - 1, true},
	} {
		f, ok := tc.e.frame()
		if ok != tc.resident || (ok && f != tc.frame) {
			t.Errorf("%s: frame() = %d, %v; want %d, %v", tc.name, f, ok, tc.frame, tc.resident)
		}
	}
}

// Pages in different leaves, including one that forces a long directory.
var spreadPages = []uint64{5, leafLen + 3, 7*leafLen - 1, 1<<20 + 11}

// TestRadixTableTracksEveryRemap drives faults, SwapFrames, MoveFrame and
// eviction over pages in several leaves and checks the raw entries.
func TestRadixTableTracksEveryRemap(t *testing.T) {
	m := smallMem(8, 4, 2)
	for _, v := range spreadPages {
		if e := m.tables[0].lookup(v); e != 0 {
			t.Fatalf("page %#x: untouched entry %#x", v, e)
		}
		p, out := m.Translate(0, v*LinesPerPage, false)
		if !out.Fault || out.Major {
			t.Fatalf("page %#x: first touch %+v", v, out)
		}
		if e := m.tables[0].lookup(v); e != resident(p/LinesPerPage) {
			t.Fatalf("page %#x: entry %#x after fault into frame %d", v, e, p/LinesPerPage)
		}
	}
	if got := len(m.tables[0].dir); got != int(spreadPages[3]>>leafBits)+1 {
		t.Fatalf("directory holds %d leaves", got)
	}
	if m.tables[1].dir != nil {
		t.Fatal("an untouched process grew a directory")
	}

	pb, _ := m.Translate(1, 9*LinesPerPage, true)
	fa, _ := m.FrameOf(0, spreadPages[2])
	fb := pb / LinesPerPage
	m.SwapFrames(fa, fb)
	if m.tables[0].lookup(spreadPages[2]) != resident(fb) || m.tables[1].lookup(9) != resident(fa) {
		t.Fatal("SwapFrames did not patch both entries")
	}

	var dst uint64
	for dst = 0; dst < 8; dst++ {
		if _, _, used := m.FrameOwner(dst); !used {
			break
		}
	}
	src, _ := m.FrameOf(0, spreadPages[1])
	m.MoveFrame(src, dst)
	if m.tables[0].lookup(spreadPages[1]) != resident(dst) {
		t.Fatal("MoveFrame did not patch the entry")
	}

	// Touch new pages until something is evicted: the victim's entry goes
	// to storage, and its next touch is a major fault.
	type page struct {
		proc  int
		vpage uint64
	}
	touched := []page{{1, 9}}
	for _, v := range spreadPages {
		touched = append(touched, page{0, v})
	}
	for v := uint64(100); m.Stats().Evictions == 0; v++ {
		m.Translate(1, v*LinesPerPage, false)
		touched = append(touched, page{1, v})
	}
	var victims []page
	for _, pg := range touched {
		if m.tables[pg.proc].lookup(pg.vpage) == onStorage {
			victims = append(victims, pg)
		}
	}
	if len(victims) != 1 {
		t.Fatalf("one eviction left %d on-storage entries", len(victims))
	}
	v := victims[0]
	if _, ok := m.FrameOf(v.proc, v.vpage); ok {
		t.Fatal("evicted page still resident")
	}
	p, out := m.Translate(v.proc, v.vpage*LinesPerPage, false)
	if !out.Major {
		t.Fatalf("re-touching an evicted page: %+v", out)
	}
	if m.tables[v.proc].lookup(v.vpage) != resident(p/LinesPerPage) {
		t.Fatal("major fault did not make the entry resident again")
	}
}

func TestPageBeyondTheDirectoryPanics(t *testing.T) {
	m := smallMem(8, 0, 1)
	bound := uint64(maxLeaves) * leafLen
	if _, ok := m.TranslateNoFault(0, bound*LinesPerPage, false); ok {
		t.Fatal("a page beyond the bound resolved")
	}
	if _, ok := m.FrameOf(0, bound); ok {
		t.Fatal("a page beyond the bound has a frame")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "beyond the page table's bound") {
			t.Fatalf("faulting a page beyond the bound: panic %q", msg)
		}
	}()
	m.Translate(0, bound*LinesPerPage, false)
}

func BenchmarkTranslateFirstTouch(b *testing.B) {
	const frames = 1 << 12
	m := smallMem(frames, frames/4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%frames == 0 && i > 0 {
			b.StopTimer()
			m = smallMem(frames, frames/4, 1)
			b.StartTimer()
		}
		m.Translate(0, uint64(i%frames)*LinesPerPage, false)
	}
}
