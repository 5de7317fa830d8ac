package dram

import (
	"testing"
	"testing/quick"
)

func testStacked() *Module { return NewModule(StackedConfig(4 << 20)) }
func testOffChip() *Module { return NewModule(OffChipConfig(12 << 20)) }

func TestConfigValidate(t *testing.T) {
	good := StackedConfig(1 << 20)
	if err := good.Validate(); err != nil {
		t.Fatalf("stacked config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Banks = -1 },
		func(c *Config) { c.BusMHz = 0 },
		func(c *Config) { c.CPUMHz = 3000 }, // not a multiple of 1600
		func(c *Config) { c.BusWidthBits = 12 },
		func(c *Config) { c.TCAS = 0 },
		func(c *Config) { c.RowBufferBytes = 32 },
		func(c *Config) { c.Channels = 12 },         // not a power of two
		func(c *Config) { c.Banks = 6 },             // not a power of two
		func(c *Config) { c.RowBufferBytes = 3072 }, // 48 lines per row
		func(c *Config) { c.BusWidthBits = 24 },     // 3 bytes per beat
	}
	for i, mutate := range cases {
		c := StackedConfig(1 << 20)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad config passed validation", i)
		}
	}
}

func TestClockConversion(t *testing.T) {
	if got := StackedConfig(0).CPUPerBus(); got != 2 {
		t.Errorf("stacked CPUPerBus = %d, want 2", got)
	}
	if got := OffChipConfig(0).CPUPerBus(); got != 4 {
		t.Errorf("offchip CPUPerBus = %d, want 4", got)
	}
}

func TestPeakBandwidthRatio(t *testing.T) {
	s := StackedConfig(0).PeakBandwidthGBs()
	o := OffChipConfig(0).PeakBandwidthGBs()
	// Paper: stacked provides ~8x the bandwidth of commodity DRAM.
	if ratio := s / o; ratio < 7.9 || ratio > 8.1 {
		t.Fatalf("stacked/offchip bandwidth ratio = %v, want ~8", ratio)
	}
}

func TestTransferCycles(t *testing.T) {
	s := testStacked()
	// Stacked: 16 B per beat, 1 CPU cycle per beat.
	if got := s.dec.TransferCycles(64); got != 4 {
		t.Errorf("stacked 64B transfer = %d cycles, want 4", got)
	}
	// The 80 B LEAD burst-of-five from the paper.
	if got := s.dec.TransferCycles(80); got != 5 {
		t.Errorf("stacked 80B transfer = %d cycles, want 5", got)
	}
	o := testOffChip()
	// Off-chip: 8 B per beat, 2 CPU cycles per beat.
	if got := o.dec.TransferCycles(64); got != 16 {
		t.Errorf("offchip 64B transfer = %d cycles, want 16", got)
	}
}

func TestUnloadedLatencyRoughlyHalf(t *testing.T) {
	s, o := testStacked(), testOffChip()
	ls, lo := s.UnloadedReadLatency(), o.UnloadedReadLatency()
	// Paper: stacked DRAM provides roughly half the latency of commodity.
	ratio := float64(lo) / float64(ls)
	if ratio < 1.8 || ratio > 2.6 {
		t.Fatalf("offchip/stacked unloaded latency ratio = %v (lo=%d ls=%d), want ~2",
			ratio, lo, ls)
	}
}

func TestRowBufferHit(t *testing.T) {
	m := testStacked()
	// Two reads to consecutive channel-lines in the same row. Stride by the
	// channel count so both land on channel 0.
	stride := uint64(m.Config().Channels)
	d1 := m.Access(0, 0, 64, false)
	d2 := m.Access(d1, stride, 64, false)
	st := m.Stats()
	if st.RowMisses != 1 || st.RowHits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.RowHits, st.RowMisses)
	}
	// The row hit skips tRCD.
	lat1, lat2 := d1, d2-d1
	if lat2 >= lat1 {
		t.Fatalf("row hit latency %d not below row miss latency %d", lat2, lat1)
	}
}

func TestRowConflictSlower(t *testing.T) {
	m := testStacked()
	linesPerRow := uint64(m.Config().RowBufferBytes / LineBytes)
	chans := uint64(m.Config().Channels)
	banks := uint64(m.Config().Banks)
	// Same channel, same bank, different row: rows on one channel cycle
	// through banks, so a stride of banks*linesPerRow*channels returns to
	// bank 0 with a new row.
	a := uint64(0)
	b := chans * linesPerRow * banks
	c0, b0, r0 := m.dec.Decode(a)
	c1, b1, r1 := m.dec.Decode(b)
	if c0 != c1 || b0 != b1 || r0 == r1 {
		t.Fatalf("address stride does not produce a row conflict: (%d,%d,%d) vs (%d,%d,%d)",
			c0, b0, r0, c1, b1, r1)
	}
	d1 := m.Access(0, a, 64, false)
	d2 := m.Access(d1, b, 64, false)
	if d2-d1 <= d1 {
		t.Fatalf("row conflict latency %d not above first-access latency %d", d2-d1, d1)
	}
}

func TestChannelParallelism(t *testing.T) {
	m := testStacked()
	// Simultaneous reads to different channels should complete at the same
	// cycle; reads to the same bank should serialize.
	dA := m.Access(0, 0, 64, false)
	dB := m.Access(0, 1, 64, false) // channel 1
	if dA != dB {
		t.Fatalf("parallel channels completed at %d and %d", dA, dB)
	}
	m2 := testStacked()
	d1 := m2.Access(0, 0, 64, false)
	d2 := m2.Access(0, 0, 64, false) // same line, same bank
	if d2 <= d1 {
		t.Fatalf("same-bank accesses did not serialize: %d then %d", d1, d2)
	}
}

func TestBandwidthAccounting(t *testing.T) {
	m := testOffChip()
	m.Access(0, 0, 64, false)
	m.Access(100, 5, 64, true)
	m.Access(200, 9, 80, false)
	st := m.Stats()
	if st.Reads != 2 || st.Writes != 1 {
		t.Fatalf("reads=%d writes=%d", st.Reads, st.Writes)
	}
	if st.BytesRead != 144 || st.BytesWritten != 64 {
		t.Fatalf("bytesRead=%d bytesWritten=%d", st.BytesRead, st.BytesWritten)
	}
	if st.Bytes() != 208 || st.Accesses() != 3 {
		t.Fatalf("Bytes=%d Accesses=%d", st.Bytes(), st.Accesses())
	}
}

func TestResetStats(t *testing.T) {
	m := testStacked()
	m.Access(0, 0, 64, false)
	m.ResetStats()
	if m.Stats() != (Stats{}) {
		t.Fatalf("stats not zeroed: %+v", m.Stats())
	}
	// Timing state survives: the row is still open.
	m.Access(1000, 0, 64, false)
	if m.Stats().RowHits != 1 {
		t.Fatal("row state lost on ResetStats")
	}
}

func TestAvgReadLatency(t *testing.T) {
	m := testStacked()
	if m.Stats().AvgReadLatency() != 0 {
		t.Fatal("AvgReadLatency nonzero with no reads")
	}
	d := m.Access(0, 0, 64, false)
	if got := m.Stats().AvgReadLatency(); got != float64(d) {
		t.Fatalf("AvgReadLatency = %v, want %v", got, float64(d))
	}
}

func TestCompletionMonotoneInArrival(t *testing.T) {
	// For a fixed address, a later arrival never completes earlier.
	check := func(line uint16, gap uint8) bool {
		m1 := testOffChip()
		m2 := testOffChip()
		d1 := m1.Access(0, uint64(line), 64, false)
		d2 := m2.Access(uint64(gap), uint64(line), 64, false)
		return d2 >= d1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionAfterArrival(t *testing.T) {
	check := func(line uint32, at uint32, write bool) bool {
		m := testStacked()
		done := m.Access(uint64(at), uint64(line), 64, write)
		return done > uint64(at)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNonPositiveAccessSizeIsPanicFree(t *testing.T) {
	// A non-positive size is a caller bug, but it must stay inside the
	// per-cell failure domain: Access clamps it to a zero-byte one-beat
	// control access instead of panicking, and the byte counters must not
	// wrap from a negative size.
	m := testStacked()
	done := m.Access(0, 0, 0, false)
	if done == 0 {
		t.Fatal("zero-byte access reported zero completion")
	}
	if done2 := m.Access(done, 0, -64, true); done2 <= done {
		t.Fatalf("negative-size access completion %d not after %d", done2, done)
	}
	st := m.Stats()
	if st.BytesRead != 0 || st.BytesWritten != 0 {
		t.Fatalf("non-positive sizes charged bytes: read=%d written=%d",
			st.BytesRead, st.BytesWritten)
	}
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("accesses not counted: reads=%d writes=%d", st.Reads, st.Writes)
	}
}

func TestContentionIncreasesLatency(t *testing.T) {
	// Hammer one channel: average latency must exceed the unloaded latency.
	m := testOffChip()
	chans := uint64(m.Config().Channels)
	var last uint64
	for i := 0; i < 100; i++ {
		last = m.Access(uint64(i), uint64(i)*chans*1024, 64, false) // channel 0, scattered rows
	}
	_ = last
	if avg := m.Stats().AvgReadLatency(); avg <= float64(m.UnloadedReadLatency()) {
		t.Fatalf("loaded avg latency %v not above unloaded %d", avg, m.UnloadedReadLatency())
	}
}

func TestLocateCoversAllChannelsAndBanks(t *testing.T) {
	m := testStacked()
	seenCh := map[int]bool{}
	seenBk := map[int]bool{}
	for line := uint64(0); line < 1<<16; line++ {
		ch, bk, _ := m.dec.Decode(line)
		seenCh[ch] = true
		seenBk[bk%m.Config().Banks] = true
	}
	if len(seenCh) != m.Config().Channels {
		t.Fatalf("channels used = %d, want %d", len(seenCh), m.Config().Channels)
	}
	if len(seenBk) != m.Config().Banks {
		t.Fatalf("banks used = %d, want %d", len(seenBk), m.Config().Banks)
	}
}

// TestDecodeMatchesDivisionForm pins the shift-and-mask decode to the
// division form it replaced, for both Table I modules.
func TestDecodeMatchesDivisionForm(t *testing.T) {
	for _, cfg := range []Config{StackedConfig(4 << 20), OffChipConfig(12 << 20)} {
		d := cfg.Decoder()
		chans, banks := uint64(cfg.Channels), uint64(cfg.Banks)
		linesPerRow := uint64(cfg.RowBufferBytes / LineBytes)
		check := func(line uint64) bool {
			rowGlobal := line / chans / linesPerRow
			ch, bank, row := d.Decode(line)
			return uint64(ch) == line%chans &&
				uint64(bank) == uint64(ch)*banks+rowGlobal%banks &&
				row == rowGlobal/banks
		}
		if err := quick.Check(check, nil); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		for line := uint64(0); line < 1<<14; line++ {
			if !check(line) {
				t.Fatalf("%s: line %d decodes differently", cfg.Name, line)
			}
		}
		bpb, perBeat := cfg.BytesPerHalfBusCycle(), (cfg.CPUPerBus()+1)/2
		for bytes := 0; bytes <= 4*LineBytes; bytes++ {
			want := uint64((bytes+bpb-1)/bpb) * perBeat
			if want == 0 {
				want = 1
			}
			if got := d.TransferCycles(bytes); got != want {
				t.Fatalf("%s: TransferCycles(%d) = %d, want %d", cfg.Name, bytes, got, want)
			}
		}
	}
}

func BenchmarkAccessStream(b *testing.B) {
	m := testOffChip()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(uint64(i)*4, uint64(i), 64, false)
	}
}

func TestRefreshValidation(t *testing.T) {
	c := OffChipConfig(1 << 20)
	c.EnableRefresh(350)
	if err := c.Validate(); err != nil {
		t.Fatalf("refresh config invalid: %v", err)
	}
	if c.TREFI != 6240 || c.TRFC != 280 {
		t.Fatalf("DDR3-800MHz refresh timing = %d/%d", c.TREFI, c.TRFC)
	}
	c.TRFC = c.TREFI // degenerate
	if err := c.Validate(); err == nil {
		t.Fatal("tRFC >= tREFI accepted")
	}
}

func TestRefreshDelaysAccesses(t *testing.T) {
	cfg := OffChipConfig(1 << 20)
	cfg.EnableRefresh(350)
	m := NewModule(cfg)
	period := uint64(cfg.TREFI) * cfg.CPUPerBus()
	dur := uint64(cfg.TRFC) * cfg.CPUPerBus()
	// An access landing mid-refresh waits for the window to close.
	at := 5 * period // exactly at a refresh boundary
	done := m.Access(at, 0, 64, false)
	if done-at <= dur {
		t.Fatalf("refresh-window access latency %d not above tRFC %d", done-at, dur)
	}
	if m.Stats().RefreshStalls != 1 {
		t.Fatalf("refresh stalls = %d", m.Stats().RefreshStalls)
	}
	// An access far from any window is unaffected.
	m2 := NewModule(cfg)
	at2 := 5*period + period/2
	d2 := m2.Access(at2, 0, 64, false)
	if d2-at2 != m2.UnloadedReadLatency() {
		t.Fatalf("mid-period access latency %d, want unloaded %d", d2-at2, m2.UnloadedReadLatency())
	}
}

func TestRefreshBandwidthCost(t *testing.T) {
	// Under a saturating stream, refresh steals roughly tRFC/tREFI of time:
	// the refreshing module finishes later.
	plain := NewModule(OffChipConfig(1 << 20))
	cfgR := OffChipConfig(1 << 20)
	cfgR.EnableRefresh(350)
	refr := NewModule(cfgR)
	for i := 0; i < 20000; i++ {
		at := uint64(i) * 8
		plain.Access(at, uint64(i*97), 64, false)
		refr.Access(at, uint64(i*97), 64, false)
	}
	if refr.Stats().RefreshStalls == 0 {
		t.Fatal("long run never hit a refresh window")
	}
	if refr.Stats().AvgReadLatency() <= plain.Stats().AvgReadLatency() {
		t.Fatalf("refresh avg latency %.1f not above plain %.1f",
			refr.Stats().AvgReadLatency(), plain.Stats().AvgReadLatency())
	}
}

func TestWriteBufferingValidation(t *testing.T) {
	c := OffChipConfig(1 << 20)
	c.WriteBuffering = true
	if err := c.Validate(); err == nil {
		t.Fatal("buffering without threshold accepted")
	}
	c.EnableWriteBuffering(8)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferedWritesDoNotBlockReads(t *testing.T) {
	plain := NewModule(OffChipConfig(1 << 20))
	cfg := OffChipConfig(1 << 20)
	cfg.EnableWriteBuffering(8)
	buf := NewModule(cfg)

	// A write immediately followed by a read to the same bank: in the
	// plain model the read queues behind the write; with buffering the
	// write parks and the read proceeds at full speed.
	plain.Access(0, 0, 64, true)
	dPlain := plain.Access(0, 0, 64, false)
	buf.Access(0, 0, 64, true)
	dBuf := buf.Access(0, 0, 64, false)
	if dBuf >= dPlain {
		t.Fatalf("buffered read %d not faster than plain %d", dBuf, dPlain)
	}
}

func TestIdleTimeDrainsWrites(t *testing.T) {
	cfg := OffChipConfig(1 << 20)
	cfg.EnableWriteBuffering(8)
	m := NewModule(cfg)
	for i := 0; i < 5; i++ {
		m.Access(0, 0, 64, true)
	}
	// A read long after: all five writes drained in the idle gap.
	m.Access(1_000_000, 0, 64, false)
	if m.Stats().HiddenWrites != 5 {
		t.Fatalf("hidden writes = %d, want 5", m.Stats().HiddenWrites)
	}
	if m.Stats().ForcedDrains != 0 {
		t.Fatal("idle drain counted as forced")
	}
}

func TestFullQueueForcesDrain(t *testing.T) {
	cfg := OffChipConfig(1 << 20)
	cfg.EnableWriteBuffering(4)
	m := NewModule(cfg)
	for i := 0; i < 6; i++ {
		m.Access(0, 0, 64, true) // same bank, no idle time to hide them
	}
	d := m.Access(1, 0, 64, false)
	if m.Stats().ForcedDrains != 1 {
		t.Fatalf("forced drains = %d, want 1", m.Stats().ForcedDrains)
	}
	// The read paid for the queued writes.
	unbuffered := NewModule(OffChipConfig(1 << 20))
	dClean := unbuffered.Access(1, 0, 64, false)
	if d <= dClean {
		t.Fatalf("forced-drain read %d not above clean read %d", d, dClean)
	}
}

func TestBufferedWriteBytesAccounted(t *testing.T) {
	cfg := OffChipConfig(1 << 20)
	cfg.EnableWriteBuffering(8)
	m := NewModule(cfg)
	m.Access(0, 0, 64, true)
	if m.Stats().Writes != 1 || m.Stats().BytesWritten != 64 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestClosedPagePolicy(t *testing.T) {
	cfg := OffChipConfig(1 << 20)
	cfg.ClosedPage = true
	m := NewModule(cfg)
	// Back-to-back same-row accesses: closed page re-activates every time,
	// so both are "row misses" and the second is not faster.
	stride := uint64(m.Config().Channels)
	d1 := m.Access(0, 0, 64, false)
	d2 := m.Access(d1, stride, 64, false)
	if m.Stats().RowHits != 0 || m.Stats().RowMisses != 2 {
		t.Fatalf("hits=%d misses=%d", m.Stats().RowHits, m.Stats().RowMisses)
	}
	if d2-d1 < d1 {
		t.Fatalf("closed-page second access %d cheaper than first %d", d2-d1, d1)
	}
	// But a row CONFLICT pattern is cheaper closed than open: no precharge
	// wait after tRAS.
	open := NewModule(OffChipConfig(1 << 20))
	conflictStride := uint64(open.Config().Channels) * uint64(open.Config().RowBufferBytes/64) * uint64(open.Config().Banks)
	dOpen1 := open.Access(0, 0, 64, false)
	dOpenConf := open.Access(dOpen1, conflictStride, 64, false) - dOpen1
	closed2 := NewModule(cfg)
	dC1 := closed2.Access(0, 0, 64, false)
	dCConf := closed2.Access(dC1, conflictStride, 64, false) - dC1
	if dCConf >= dOpenConf {
		t.Fatalf("closed-page conflict %d not below open-page conflict %d", dCConf, dOpenConf)
	}
}

// TestNewReportsInvalidConfig: the error-returning constructor rejects what
// Validate rejects; NewModule remains the panicking wrapper.
func TestNewReportsInvalidConfig(t *testing.T) {
	if _, err := New(StackedConfig(1 << 20)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := StackedConfig(1 << 20)
	bad.Channels = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero-channel config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewModule did not panic on invalid config")
		}
	}()
	NewModule(bad)
}
