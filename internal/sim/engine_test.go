package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Cycle
	for _, at := range []Cycle{30, 10, 20, 5, 25} {
		at := at
		e.At(at, func(now Cycle) {
			if now != at {
				t.Errorf("event scheduled at %d fired at %d", at, now)
			}
			order = append(order, now)
		})
	}
	end := e.Run()
	if end != 30 {
		t.Fatalf("final cycle = %d, want 30", end)
	}
	want := []Cycle{5, 10, 20, 25, 30}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func(Cycle) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ties fired out of insertion order: %v", order)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var step func(now Cycle)
	step = func(now Cycle) {
		count++
		if count < 5 {
			e.After(10, step)
		}
	}
	e.At(0, step)
	end := e.Run()
	if count != 5 || end != 40 {
		t.Fatalf("count=%d end=%d, want 5 and 40", count, end)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func(Cycle) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func(Cycle) {})
}

func TestStepOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestClockNeverGoesBackward(t *testing.T) {
	check := func(delays []uint16) bool {
		e := NewEngine()
		last := Cycle(0)
		ok := true
		for _, d := range delays {
			e.At(Cycle(d), func(now Cycle) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// refEngine is the reference the calendar queue is checked against: a list
// kept sorted by cycle with a stable sort, so same-cycle events stay in the
// order they were scheduled.
type refEngine struct {
	now   Cycle
	queue []refEvent
	stats Stats
}

type refEvent struct {
	at Cycle
	fn func(now Cycle)
}

func (r *refEngine) At(at Cycle, fn func(now Cycle)) {
	if at < r.now {
		panic("ref: event scheduled in the past")
	}
	r.queue = append(r.queue, refEvent{at, fn})
	slices.SortStableFunc(r.queue, func(a, b refEvent) int { return cmp.Compare(a.at, b.at) })
	r.stats.MaxPending = max(r.stats.MaxPending, uint64(len(r.queue)))
}

func (r *refEngine) Run() Cycle {
	for len(r.queue) > 0 {
		v := r.queue[0]
		r.queue = r.queue[1:]
		r.now = v.at
		r.stats.EventsFired++
		v.fn(r.now)
	}
	return r.now
}

// firing is one fired event as a differential run observes it.
type firing struct {
	id  int
	now Cycle
}

// randomSchedule drives a schedule through at, which is either engine's At:
// a seeded burst of initial events, then callbacks that schedule more from
// inside the run. Delays mix same-cycle ties, short gaps, the edges of the
// calendar window and far page-fault-sized jumps, so events cross between
// the buckets and the far heap in both directions of the tie-break.
func randomSchedule(seed int64, now func() Cycle, at func(Cycle, func(Cycle))) *[]firing {
	rng := rand.New(rand.NewSource(seed))
	log := &[]firing{}
	delay := func() Cycle {
		switch k := rng.Intn(16); {
		case k < 3:
			return 0
		case k < 10:
			return Cycle(rng.Intn(300))
		case k < 13:
			return wheelSize - 2 + Cycle(rng.Intn(4))
		case k < 15:
			return Cycle(rng.Intn(4 * wheelSize))
		default:
			return 100_000 + Cycle(rng.Intn(3))
		}
	}
	budget := 4000
	var schedule func(id int)
	schedule = func(id int) {
		at(now()+delay(), func(t Cycle) {
			*log = append(*log, firing{id, t})
			if t != now() {
				panic("callback argument differs from Now")
			}
			for n := rng.Intn(3); n > 0 && budget > 0; n-- {
				budget--
				schedule(4000 - budget)
			}
		})
	}
	for i := 0; i < 64; i++ {
		schedule(-1 - i)
	}
	return log
}

// TestCalendarQueueMatchesSortedReference pins the calendar queue's
// exactness: for random schedules it fires the same events in the same
// order at the same cycles as a sorted-list reference, and reports the
// same final clock, EventsFired and MaxPending.
func TestCalendarQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		e := NewEngine()
		got := randomSchedule(seed, e.Now, e.At)
		end := e.Run()

		r := &refEngine{}
		want := randomSchedule(seed, func() Cycle { return r.now }, r.At)
		refEnd := r.Run()

		if !slices.Equal(*got, *want) {
			i := 0
			for i < min(len(*got), len(*want)) && (*got)[i] == (*want)[i] {
				i++
			}
			t.Fatalf("seed %d: fire order diverges at event %d of %d/%d", seed, i, len(*got), len(*want))
		}
		if end != refEnd || e.Now() != refEnd {
			t.Fatalf("seed %d: final clock %d (Now %d), reference %d", seed, end, e.Now(), refEnd)
		}
		if e.Stats() != r.stats {
			t.Fatalf("seed %d: stats %+v, reference %+v", seed, e.Stats(), r.stats)
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 100; j++ {
			e.At(Cycle(j%17), func(Cycle) {})
		}
		e.Run()
	}
}

// BenchmarkScheduleAndRunSteady times one event of the regime a 32-core
// cell runs in: a long-lived engine with one self-rescheduling chain per
// core, gaps of up to a few hundred cycles and an occasional
// page-fault-sized block beyond the calendar window.
func BenchmarkScheduleAndRunSteady(b *testing.B) {
	e := NewEngine()
	const chains = 32
	for i := 0; i < chains; i++ {
		x := uint32(2*i + 1)
		var f func(now Cycle)
		f = func(now Cycle) {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			gap := Cycle(x % 300)
			if x%1024 == 0 {
				gap = 100_000
			}
			e.At(now+gap, f)
		}
		e.At(Cycle(i), f)
	}
	for i := 0; i < 100_000; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
