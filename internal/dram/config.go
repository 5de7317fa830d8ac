// Package dram models DRAM modules (die-stacked and commodity off-chip) at
// bank/channel granularity: open-page row buffers, Table I timing
// parameters, DDR burst transfer timing, and contention through per-bank and
// per-channel busy-until state.
//
// All externally visible times are in CPU cycles (the paper's 3.2 GHz core
// clock); timing parameters are specified in DRAM bus cycles and converted
// on construction.
package dram

import (
	"fmt"
	"math/bits"
)

// LineBytes is the CPU cache-line size used throughout the system.
const LineBytes = 64

// Config describes one DRAM module, mirroring Table I of the paper.
type Config struct {
	Name string

	// Channels is the number of independent channels; each channel has its
	// own data bus and Banks banks (one rank per channel is modeled).
	Channels int
	Banks    int

	// BusMHz is the bus clock; DDR transfers twice per bus cycle.
	BusMHz int
	// BusWidthBits is the per-channel data bus width.
	BusWidthBits int

	// Timing in bus cycles (tCAS-tRCD-tRP-tRAS).
	TCAS int
	TRCD int
	TRP  int
	TRAS int

	// RowBufferBytes is the row (page) size of one bank.
	RowBufferBytes int

	// CPUMHz is the core clock used to convert bus cycles to CPU cycles.
	CPUMHz int

	// CapacityBytes is the module capacity (used for address checking and
	// the Fig 3 spec table; the timing model itself is capacity-agnostic).
	CapacityBytes uint64

	// ClosedPage selects a closed-page row policy: every access pays
	// activate+CAS but never a row-conflict precharge — the trade-off for
	// access streams with little row locality. Default is open-page, which
	// Table I's workloads favour.
	ClosedPage bool

	// WriteBuffering enables the controller's write-queue model: posted
	// writes park in a per-bank queue and drain during bank idle time
	// (read priority), with a forced drain once a bank's queue reaches
	// WriteDrainThreshold. Off by default: the baseline model services
	// writes in arrival order like the paper's.
	WriteBuffering      bool
	WriteDrainThreshold int

	// RefreshEnabled adds all-bank refresh: every TREFI bus cycles the
	// module is unavailable for TRFC bus cycles. Off by default (the
	// paper's model does not mention refresh); the refresh ablation turns
	// it on with EnableRefresh.
	RefreshEnabled bool
	TREFI          int // bus cycles between refreshes
	TRFC           int // bus cycles a refresh occupies
}

// EnableWriteBuffering turns on the write-queue model with the given
// forced-drain threshold (8 is a typical per-bank watermark).
func (c *Config) EnableWriteBuffering(threshold int) {
	c.WriteBuffering = true
	c.WriteDrainThreshold = threshold
}

// EnableRefresh turns on refresh with DDR3-class parameters: a 7.8 us
// refresh interval and the given refresh cycle time in nanoseconds
// (~350 ns for multi-gigabit parts).
func (c *Config) EnableRefresh(trfcNanos int) {
	c.RefreshEnabled = true
	c.TREFI = 7800 * c.BusMHz / 1000 // 7.8 us in bus cycles
	c.TRFC = trfcNanos * c.BusMHz / 1000
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("dram %q: Channels must be positive, got %d", c.Name, c.Channels)
	case c.Banks <= 0:
		return fmt.Errorf("dram %q: Banks must be positive, got %d", c.Name, c.Banks)
	case c.BusMHz <= 0 || c.CPUMHz <= 0:
		return fmt.Errorf("dram %q: clock frequencies must be positive", c.Name)
	case c.CPUMHz%c.BusMHz != 0:
		return fmt.Errorf("dram %q: CPU clock %d MHz must be a multiple of bus clock %d MHz",
			c.Name, c.CPUMHz, c.BusMHz)
	case c.BusWidthBits <= 0 || c.BusWidthBits%8 != 0:
		return fmt.Errorf("dram %q: BusWidthBits must be a positive multiple of 8, got %d",
			c.Name, c.BusWidthBits)
	case c.TCAS <= 0 || c.TRCD <= 0 || c.TRP <= 0 || c.TRAS <= 0:
		return fmt.Errorf("dram %q: timing parameters must be positive", c.Name)
	case c.RowBufferBytes < LineBytes:
		return fmt.Errorf("dram %q: RowBufferBytes %d smaller than a line", c.Name, c.RowBufferBytes)
	case !pow2(c.Channels) || !pow2(c.Banks):
		return fmt.Errorf("dram %q: Channels %d and Banks %d must be powers of two (the address decode shifts and masks)",
			c.Name, c.Channels, c.Banks)
	case !pow2(c.RowBufferBytes / LineBytes):
		return fmt.Errorf("dram %q: RowBufferBytes %d must hold a power-of-two number of %d B lines",
			c.Name, c.RowBufferBytes, LineBytes)
	case !pow2(c.BusWidthBits / 8):
		return fmt.Errorf("dram %q: BusWidthBits %d must move a power-of-two number of bytes per beat",
			c.Name, c.BusWidthBits)
	case c.RefreshEnabled && (c.TREFI <= 0 || c.TRFC <= 0 || c.TRFC >= c.TREFI):
		return fmt.Errorf("dram %q: refresh timing tREFI=%d tRFC=%d invalid", c.Name, c.TREFI, c.TRFC)
	case c.WriteBuffering && c.WriteDrainThreshold <= 0:
		return fmt.Errorf("dram %q: WriteDrainThreshold must be positive with buffering", c.Name)
	}
	return nil
}

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// CPUPerBus returns the number of CPU cycles per DRAM bus cycle.
func (c Config) CPUPerBus() uint64 { return uint64(c.CPUMHz / c.BusMHz) }

// BytesPerHalfBusCycle returns the bytes moved per DDR beat (half bus cycle).
func (c Config) BytesPerHalfBusCycle() int { return c.BusWidthBits / 8 }

// Decoder is a valid Config's address map and burst timing in shift-and-mask
// form: Validate guarantees that every divisor is a power of two. Module and
// the FR-FCFS controller (package memctrl) both decode through it.
type Decoder struct {
	chanMask   uint64
	lineShift  uint // log2(Channels * lines per row)
	bankShift  uint // log2(Banks)
	bankMask   uint64
	beatShift  uint // log2(bytes per DDR beat)
	beatCycles uint64
}

// Decoder returns c's decoder. c must be valid.
func (c Config) Decoder() Decoder {
	log2 := func(n int) uint { return uint(bits.TrailingZeros(uint(n))) }
	return Decoder{
		chanMask:   uint64(c.Channels - 1),
		lineShift:  log2(c.Channels) + log2(c.RowBufferBytes/LineBytes),
		bankShift:  log2(c.Banks),
		bankMask:   uint64(c.Banks - 1),
		beatShift:  log2(c.BytesPerHalfBusCycle()),
		beatCycles: (c.CPUPerBus() + 1) / 2,
	}
}

// Decode maps a line address (module-local, 64 B units) to its channel, its
// global bank index channel*Banks+bank, and its row within the bank. Lines
// are interleaved across channels; within a channel, a full row's worth of
// consecutive channel-lines share a bank and row so that streaming accesses
// enjoy row-buffer locality.
func (d Decoder) Decode(line uint64) (ch, bank int, row uint64) {
	rowGlobal := line >> d.lineShift
	ch = int(line & d.chanMask)
	bank = ch<<d.bankShift | int(rowGlobal&d.bankMask)
	return ch, bank, rowGlobal >> d.bankShift
}

// TransferCycles returns the CPU cycles the data bus is occupied moving
// bytes bytes: whole DDR beats, and at least one cycle. bytes must not be
// negative.
func (d Decoder) TransferCycles(bytes int) uint64 {
	beats := (uint64(bytes) + 1<<d.beatShift - 1) >> d.beatShift
	if t := beats * d.beatCycles; t > 0 {
		return t
	}
	return 1
}

// PeakBandwidthGBs returns the aggregate peak bandwidth in GB/s, used by the
// Fig 3 specification table.
func (c Config) PeakBandwidthGBs() float64 {
	perChan := float64(c.BusMHz) * 1e6 * 2 * float64(c.BusWidthBits/8)
	return perChan * float64(c.Channels) / 1e9
}

// CPUMHzDefault is the paper's core frequency (Table I).
const CPUMHzDefault = 3200

// StackedConfig returns the Table I die-stacked DRAM: 16 channels, 16 banks,
// 1.6 GHz bus (DDR 3.2), 128-bit channels, 9-9-9-36, 2 KB rows.
func StackedConfig(capacityBytes uint64) Config {
	return Config{
		Name:           "stacked",
		Channels:       16,
		Banks:          16,
		BusMHz:         1600,
		BusWidthBits:   128,
		TCAS:           9,
		TRCD:           9,
		TRP:            9,
		TRAS:           36,
		RowBufferBytes: 2048,
		CPUMHz:         CPUMHzDefault,
		CapacityBytes:  capacityBytes,
	}
}

// OffChipConfig returns the Table I commodity DRAM: 8 channels, 8 banks,
// 800 MHz bus (DDR 1.6), 64-bit channels, 9-9-9-36, 8 KB rows.
func OffChipConfig(capacityBytes uint64) Config {
	return Config{
		Name:           "offchip",
		Channels:       8,
		Banks:          8,
		BusMHz:         800,
		BusWidthBits:   64,
		TCAS:           9,
		TRCD:           9,
		TRP:            9,
		TRAS:           36,
		RowBufferBytes: 8192,
		CPUMHz:         CPUMHzDefault,
		CapacityBytes:  capacityBytes,
	}
}
