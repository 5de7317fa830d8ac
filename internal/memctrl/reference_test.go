package memctrl

import "cameo/internal/dram"

// refController is the linear-scan FR-FCFS controller the per-bank write
// queue replaced, kept as the reference the differential tests hold
// Controller to. Every Access appends its request to one queue; each issue
// rescans the whole queue for the minimum key, and requests decode their
// channel, bank and row with divisions.
type refController struct {
	cfg dram.Config

	tCAS         uint64
	tRCD         uint64
	tRP          uint64
	tRAS         uint64
	halfCycleCPU uint64
	bytesPerBeat int
	linesPerRow  uint64

	banks []refBank
	buses []uint64

	queue   []refRequest
	nextSeq uint64
	writes  int // queued writes

	stats         dram.Stats
	maxQueueDepth int
}

type refRequest struct {
	row     uint64
	arrival uint64
	seq     uint64
	bytes   int32
	ch      int32
	bank    int32 // global bank index (ch*Banks+bank)
	write   bool
}

type refBank struct {
	openRow   uint64
	hasOpen   bool
	busyUntil uint64
	lastAct   uint64
}

func newRef(cfg dram.Config) *refController {
	cpb := cfg.CPUPerBus()
	return &refController{
		cfg:          cfg,
		tCAS:         uint64(cfg.TCAS) * cpb,
		tRCD:         uint64(cfg.TRCD) * cpb,
		tRP:          uint64(cfg.TRP) * cpb,
		tRAS:         uint64(cfg.TRAS) * cpb,
		halfCycleCPU: (cpb + 1) / 2,
		bytesPerBeat: cfg.BytesPerHalfBusCycle(),
		linesPerRow:  uint64(cfg.RowBufferBytes / dram.LineBytes),
		banks:        make([]refBank, cfg.Channels*cfg.Banks),
		buses:        make([]uint64, cfg.Channels),
	}
}

func (c *refController) locate(line uint64) (channel, bank int, row uint64) {
	ch := int(line % uint64(c.cfg.Channels))
	cidx := line / uint64(c.cfg.Channels)
	rowGlobal := cidx / c.linesPerRow
	b := int(rowGlobal % uint64(c.cfg.Banks))
	return ch, b, rowGlobal / uint64(c.cfg.Banks)
}

func (c *refController) transferCycles(bytes int32) uint64 {
	beats := uint64((int(bytes) + c.bytesPerBeat - 1) / c.bytesPerBeat)
	t := beats * c.halfCycleCPU
	if t == 0 {
		t = 1
	}
	return t
}

func (c *refController) Access(at uint64, line uint64, bytes int, isWrite bool) uint64 {
	if bytes < 0 {
		bytes = 0
	}
	ch, bk, row := c.locate(line)
	req := refRequest{
		row:     row,
		arrival: at,
		seq:     c.nextSeq,
		bytes:   int32(bytes),
		ch:      int32(ch),
		bank:    int32(ch*c.cfg.Banks + bk),
		write:   isWrite,
	}
	c.nextSeq++
	c.queue = append(c.queue, req)
	if len(c.queue) > c.maxQueueDepth {
		c.maxQueueDepth = len(c.queue)
	}
	if isWrite {
		c.writes++
		c.stats.Writes++
		c.stats.BytesWritten += uint64(bytes)
		for len(c.queue) > queueCap {
			c.issue(c.pick())
		}
		return at + c.tCAS + c.transferCycles(req.bytes)
	}
	c.stats.Reads++
	c.stats.BytesRead += uint64(bytes)
	for {
		done, s := c.issue(c.pick())
		if s == req.seq {
			c.stats.TotalReadLatency += done - at
			return done
		}
	}
}

// pick returns the queue index of the minimum (start + write bias unless
// draining, row miss, seq).
func (c *refController) pick() int {
	drain := c.writes >= writeDrainWatermark
	best := -1
	var bestStart, bestMiss, bestSeq uint64
	for i := range c.queue {
		r := &c.queue[i]
		bank := &c.banks[r.bank]
		start := r.arrival
		if bank.busyUntil > start {
			start = bank.busyUntil
		}
		if r.write && !drain {
			start += writeBias
		}
		var miss uint64 = 1
		if bank.hasOpen && bank.openRow == r.row {
			miss = 0
		}
		if best == -1 || start < bestStart ||
			(start == bestStart && (miss < bestMiss ||
				(miss == bestMiss && r.seq < bestSeq))) {
			best, bestStart, bestMiss, bestSeq = i, start, miss, r.seq
		}
	}
	return best
}

func (c *refController) issue(idx int) (done, seq uint64) {
	r := c.queue[idx]
	last := len(c.queue) - 1
	c.queue[idx] = c.queue[last]
	c.queue = c.queue[:last]
	if r.write {
		c.writes--
	}

	bank := &c.banks[r.bank]
	start := r.arrival
	if bank.busyUntil > start {
		start = bank.busyUntil
	}
	var ready uint64
	switch {
	case bank.hasOpen && bank.openRow == r.row:
		c.stats.RowHits++
		ready = start + c.tCAS
	case !bank.hasOpen:
		c.stats.RowMisses++
		bank.lastAct = start
		ready = start + c.tRCD + c.tCAS
	default:
		c.stats.RowMisses++
		preStart := start
		if earliest := bank.lastAct + c.tRAS; earliest > preStart {
			preStart = earliest
		}
		actStart := preStart + c.tRP
		bank.lastAct = actStart
		ready = actStart + c.tRCD + c.tCAS
	}
	bank.hasOpen = true
	bank.openRow = r.row

	dataStart := ready
	if c.buses[r.ch] > dataStart {
		dataStart = c.buses[r.ch]
	}
	done = dataStart + c.transferCycles(r.bytes)
	c.buses[r.ch] = done
	bank.busyUntil = done
	return done, r.seq
}
