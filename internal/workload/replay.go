package workload

import (
	"fmt"
	"math"
)

// entry is one recorded request packed into 16 bytes: the virtual line,
// the gap, and the PC with its top bit marking a writeback.
type entry struct {
	vline uint64
	gap   uint32
	pc    uint32
}

const (
	// entryWrite is the PC bit that marks a writeback entry.
	entryWrite = 1 << 31
	// chunkEntries sizes a recording's chunks (16 KiB each): large enough
	// that replay rarely changes chunk, small enough that the partly
	// filled last chunk of each core wastes little.
	chunkEntries = 1024
)

// Recording is an immutable request sequence captured by a Recorder. It is
// stored in fixed-size chunks, so recording never copies what it already
// holds, and any number of Replays may read it concurrently.
type Recording struct {
	chunks [][]entry
	n      int
}

// Len returns the number of recorded requests.
func (r *Recording) Len() int { return r.n }

// Replay returns a Source that yields the recorded requests in order.
func (r *Recording) Replay() *Replay { return &Replay{chunks: r.chunks, n: r.n} }

// Recorder builds a Recording one request at a time. The zero value is
// ready to use.
type Recorder struct {
	chunks [][]entry
	cur    []entry
	n      int
}

// Add appends req. It fails when req does not fit a 16-byte entry: a gap
// of 2^32 or more instructions, or a PC at or above 2^31.
func (w *Recorder) Add(req Request) error {
	if req.Gap > math.MaxUint32 || req.PC >= entryWrite {
		return fmt.Errorf("workload: request %d (gap %d, pc %#x) does not fit a recording entry", w.n, req.Gap, req.PC)
	}
	if len(w.cur) == cap(w.cur) {
		if w.cur != nil {
			w.chunks = append(w.chunks, w.cur)
		}
		w.cur = make([]entry, 0, chunkEntries)
	}
	pc := uint32(req.PC)
	if req.Write {
		pc |= entryWrite
	}
	w.cur = append(w.cur, entry{vline: req.VLine, gap: uint32(req.Gap), pc: pc})
	w.n++
	return nil
}

// Finish returns the recording of every request added so far. The
// Recorder must not be used afterwards.
func (w *Recorder) Finish() *Recording {
	rec := &Recording{chunks: w.chunks, n: w.n}
	if len(w.cur) > 0 {
		rec.chunks = append(rec.chunks, w.cur)
	}
	*w = Recorder{}
	return rec
}

// Replay is a Source over a Recording. Unlike a Stream it is finite: a
// read past the end panics, because a consumer that wants more requests
// than were recorded was cut by a different rule than the recording was.
type Replay struct {
	chunks [][]entry
	cur    []entry
	n      int
}

// Next returns the next recorded request.
func (p *Replay) Next() Request {
	if len(p.cur) == 0 {
		if len(p.chunks) == 0 {
			panic(fmt.Sprintf("workload: replay read past the end of its %d-request recording", p.n))
		}
		p.cur, p.chunks = p.chunks[0], p.chunks[1:]
	}
	e := &p.cur[0]
	p.cur = p.cur[1:]
	return Request{Gap: uint64(e.gap), VLine: e.vline, PC: uint64(e.pc &^ entryWrite), Write: e.pc&entryWrite != 0}
}
