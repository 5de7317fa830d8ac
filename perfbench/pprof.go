package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// CPU-profile attribution for the modules that have no public boundary to
// trace (sim, cpu, workload, vm, system). runtime/pprof writes the
// gzip-compressed profile.proto format; the decoder below reads the few
// fields attribution needs, since the module depends on nothing outside
// the standard library.

// cpuProfile is a decoded CPU profile: one entry per sample, each with its
// stack (function names, leaf first, inlined frames expanded) and CPU time.
type cpuProfile struct {
	stacks [][]string
	ns     []int64
}

// phases accumulates a traced run's measured phases: their wall times,
// this process's CPU time and heap allocation, and one CPU profile over
// all of them.
type phases struct {
	walls []float64
	cpu   time.Duration
	alloc uint64
	steal uint64
	prof  cpuProfile
}

// run measures f as one traced phase.
func (p *phases) run(f func() error) error {
	runtime.GC()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	alloc0, cpu0, steal0, t0 := heapAllocBytes(), selfCPU(), stealTicks(), time.Now()
	ferr := f()
	wall := time.Since(t0)
	p.cpu += selfCPU() - cpu0
	p.alloc += heapAllocBytes() - alloc0
	p.steal += stealTicks() - steal0
	got, perr := prof.stop()
	if ferr != nil {
		return ferr
	}
	if perr != nil {
		return perr
	}
	p.walls = append(p.walls, wall.Seconds())
	p.prof.stacks = append(p.prof.stacks, got.stacks...)
	p.prof.ns = append(p.prof.ns, got.ns...)
	return nil
}

// tracedPhaseOpen reports whether a traced run should start another traced
// round: it profiles rounds for half of --seconds, and at least three.
// Counts are reported per round, so they do not depend on how many fit.
func tracedPhaseOpen(start time.Time, cfg config, done int) bool {
	return done < 3 || time.Since(start).Seconds() < cfg.seconds/2
}

type profiling struct{ buf bytes.Buffer }

func startProfile() (*profiling, error) {
	p := &profiling{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *profiling) stop() (*cpuProfile, error) {
	pprof.StopCPUProfile()
	return decodeProfile(p.buf.Bytes())
}

// decodeProfile parses a (possibly gzipped) profile.proto message.
func decodeProfile(data []byte) (*cpuProfile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs        []string
		sampleTypes []int64 // string index of each sample type
		samples     []sample
		locFuncs    = map[uint64][]uint64{} // location → function ids, innermost first
		funcNames   = map[uint64]int64{}    // function → string index
	)
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendPacked(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	valueIdx := -1
	for i, st := range sampleTypes {
		if st >= 0 && int(st) < len(strs) && strs[st] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	name := func(fn uint64) string {
		i := funcNames[fn]
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, name(fn))
			}
		}
		p.stacks = append(p.stacks, stack)
		p.ns = append(p.ns, s.values[valueIdx])
	}
	return p, nil
}

// walkFields calls fn for each field of a protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func walkFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked handles a repeated varint field in packed or unpacked form.
func appendPacked(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Attribution. Each sample is charged to exactly one layer, so the layers
// plus "other" always sum to the profile's CPU time:
//
//   - walking the stack from the leaf, the first frame in a layer package
//     takes the sample; standard-library and unlisted repository frames
//     are transparent, so math.Log under workload.(*Stream).gap is the
//     workload's;
//   - a GC or scheduler frame met before any layer frame charges
//     "runtime", as does a stack made only of runtime frames;
//   - the benchmark's own frames are "harness" (the load generator of an
//     in-process traced topology);
//   - anything else is "other".

// layerPackages maps repository packages onto layers; xrand is the
// workload generator's random source.
var layerPackages = map[string]string{
	"sim": "sim", "cpu": "cpu", "workload": "workload", "xrand": "workload",
	"vm": "vm", "system": "system",
	"cameo": "cameo", "alloy": "alloy", "tlm": "tlm", "memsys": "memsys",
	"dram": "dram", "memctrl": "memctrl",
	"experiments": "experiments", "runner": "runner", "server": "server",
	"sweepapi": "sweepapi", "fleet": "fleet",
}

// profileLayers lists every bucket attribution can charge, in report order.
var profileLayers = []string{
	"sim", "cpu", "workload", "vm", "system",
	"cameo", "alloy", "tlm", "memsys", "dram", "memctrl",
	"experiments", "runner", "server", "sweepapi", "fleet",
	"runtime", "harness", "other",
}

// gcFrames and schedFrames mark runtime work that stays "runtime".
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.deductSweepCredit",
	"runtime.wbBufFlush", "runtime.gcWriteBarrier", "runtime.markroot", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime._GC",
}

var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.park_m",
	"runtime.goschedImpl", "runtime.sysmon", "runtime.mstart", "runtime._System",
	"runtime._ExternalCode",
}

func hasFramePrefix(fn string, frames []string) bool {
	for _, f := range frames {
		if strings.HasPrefix(fn, f) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol such as
// "cameo/internal/sim.(*Engine).Run".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func frameLayer(fn string) string {
	pkg := funcPackage(fn)
	if name, ok := strings.CutPrefix(pkg, "cameo/internal/"); ok {
		return layerPackages[name]
	}
	if pkg == "cameo/perfbench" || pkg == "main" {
		return "harness"
	}
	return ""
}

// classify returns the layer a stack's sample is charged to, and whether
// it is garbage-collection work.
func classify(stack []string) (layer string, gc bool) {
	allRuntime := len(stack) > 0
	for _, fn := range stack {
		if hasFramePrefix(fn, gcFrames) {
			return "runtime", true
		}
		if hasFramePrefix(fn, schedFrames) {
			return "runtime", false
		}
		if l := frameLayer(fn); l != "" {
			return l, false
		}
		if funcPackage(fn) != "runtime" {
			allRuntime = false
		}
	}
	if allRuntime {
		return "runtime", false
	}
	return "other", false
}

// attribution is the profile's CPU time per layer.
type attribution struct {
	ns    map[string]int64
	gcNS  int64
	total int64
}

func attribute(p *cpuProfile) attribution {
	a := attribution{ns: map[string]int64{}}
	for i, stack := range p.stacks {
		layer, gc := classify(stack)
		a.ns[layer] += p.ns[i]
		a.total += p.ns[i]
		if gc {
			a.gcNS += p.ns[i]
		}
	}
	return a
}

func (a attribution) share(layer string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.ns[layer]) / float64(a.total)
}
