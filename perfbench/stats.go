package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// rounds collects one value per measured round for each end-to-end metric,
// plus the pooled per-request latencies and the host-speed calibrations
// taken between rounds, and reduces them to medians.
type rounds struct {
	wall, cpu, rss, setup, simReq, reqs []float64
	latMS                               []float64
	kernel, kernelCPU                   []float64
	lastCalibration                     time.Time
	// steal0 is the host's steal-tick count when the first round began.
	steal0 uint64
}

// add records one measured round: its wall and CPU time, peak resident
// bytes, the simulated memory requests it executed, and the requests it
// answered.
func (r *rounds) add(wall, cpu time.Duration, rssBytes uint64, simRequests float64, requests int) {
	r.wall = append(r.wall, wall.Seconds())
	r.cpu = append(r.cpu, cpu.Seconds())
	r.rss = append(r.rss, float64(rssBytes)/(1<<20))
	r.simReq = append(r.simReq, simRequests/1e6/wall.Seconds())
	r.reqs = append(r.reqs, float64(requests)/wall.Seconds())
}

// calibrate runs the reference kernel before a round, at most once a
// second so short rounds are not dominated by it.
func (r *rounds) calibrate() {
	if len(r.kernel) == 0 {
		r.steal0 = stealTicks()
	}
	if len(r.kernel) > 0 && time.Since(r.lastCalibration) < time.Second {
		return
	}
	wall, cpu := refKernel()
	r.kernel = append(r.kernel, wall.Seconds())
	r.kernelCPU = append(r.kernelCPU, cpu.Seconds())
	r.lastCalibration = time.Now()
}

// speed is the host's speed during the run relative to the nominal one, as
// wall-clock time and as CPU time see it.
func (r *rounds) speed() (wall, cpu float64) {
	return refKernelNominal.Seconds() / median(r.kernel), refKernelNominalCPU.Seconds() / median(r.kernelCPU)
}

// endToEnd reduces the rounds to the benchmark's end-to-end metrics, with
// wall-clock times scaled to the nominal host speed (rates inversely) and
// CPU time to the nominal CPU speed; peak RSS is reported as measured.
func (r *rounds) endToEnd() map[string]metric {
	s, c := r.speed()
	return map[string]metric{
		"wall_s":         {median(r.wall) * s, "s"},
		"cpu_s":          {median(r.cpu) * c, "s"},
		"peak_rss_mb":    {median(r.rss), "MiB"},
		"setup_s":        {median(r.setup) * s, "s"},
		"sim_mreq_per_s": {median(r.simReq) / s, "M/s"},
		"req_per_s":      {median(r.reqs) / s, "1/s"},
		"p50_ms":         {quantile(r.latMS, 0.50) * s, "ms"},
	}
}

// checkAccounting rejects a run whose CPU time exceeds what the host's
// processors could have delivered in the measured wall time, comparing
// the raw measurements of each round.
func (r *rounds) checkAccounting() error {
	limit := float64(nproc())
	for i := range r.wall {
		if r.cpu[i] > limit*r.wall[i] {
			return fmt.Errorf("round %d: cpu %.4f s exceeds nproc × wall = %.4f s", i, r.cpu[i], limit*r.wall[i])
		}
	}
	return nil
}

// summary is the human-readable account of the rounds behind a result,
// including the steal ticks the host accrued while they ran (recorded
// only; no run is dropped for them).
func (r *rounds) summary() string {
	s, c := r.speed()
	return fmt.Sprintf("%d rounds, %d set-ups; raw medians wall %.6f s cpu %.6f s setup %.6g s; "+
		"raw latency p50 %.4f ms p99 %.4f ms of %d; host speed %.4f wall, %.4f cpu (reference kernel medians %.4f s, %.4f s cpu, of %d); steal ticks %d",
		len(r.wall), len(r.setup), median(r.wall), median(r.cpu), median(r.setup),
		quantile(r.latMS, 0.50), quantile(r.latMS, 0.99), len(r.latMS),
		s, c, median(r.kernel), median(r.kernelCPU), len(r.kernel), stealTicks()-r.steal0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
