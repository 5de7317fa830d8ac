package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cameo/internal/metrics"
	"cameo/internal/system"
)

// layerInput is everything a traced run measured. Counts are reported per
// traced round, so they do not depend on how many rounds a run traced.
type layerInput struct {
	phases *phases
	rounds int
	tracer *tracer
	// cells are the results one traced round simulated, keyed by cell key,
	// for the simulator's own counters.
	cells map[string]system.Result
	// cellsExecuted counts the cells one round simulated rather than
	// loaded from a cache.
	cellsExecuted float64
	// service is the merged /metrics of the workers (serve, fleet) and
	// coordinator the Coordinator.Metrics() snapshot (fleet), both summed
	// over the traced rounds' measured phases.
	service     metrics.Snapshot
	coordinator metrics.Snapshot
	// sweepNeeded counts the measured-sweep cells no worker had cached, per
	// round.
	sweepNeeded float64
	overhead    float64
	fig13Err    float64
}

// perLayerNames lists every per-layer metric, in BENCHMARK.json order.
// Every traced run reports all of them; a layer a workload does not load
// reads zero.
var perLayerNames = []struct{ name, unit string }{
	{"sim.self_share", "ratio"}, {"sim.events", "count"}, {"sim.ns_per_event", "ns"},
	{"cpu.self_share", "ratio"},
	{"workload.self_share", "ratio"},
	{"vm.self_share", "ratio"}, {"vm.faults", "count"}, {"vm.evictions", "count"},
	{"system.self_share", "ratio"},
	{"cameo.self_share", "ratio"}, {"cameo.accesses", "count"}, {"cameo.self_ns_per_access", "ns"},
	{"cameo.llp_accuracy", "ratio"}, {"cameo.swaps", "count"},
	{"alloy.self_share", "ratio"}, {"alloy.accesses", "count"}, {"alloy.self_ns_per_access", "ns"},
	{"alloy.hit_ratio", "ratio"},
	{"tlm.self_share", "ratio"}, {"tlm.accesses", "count"}, {"tlm.self_ns_per_access", "ns"},
	{"tlm.page_moves", "count"},
	{"memsys.self_share", "ratio"}, {"memsys.accesses", "count"}, {"memsys.self_ns_per_access", "ns"},
	{"dram.self_share", "ratio"}, {"dram.accesses", "count"}, {"dram.self_ns_per_access", "ns"},
	{"dram.row_hit_ratio", "ratio"},
	{"memctrl.self_share", "ratio"}, {"memctrl.accesses", "count"}, {"memctrl.self_ns_per_access", "ns"},
	{"memctrl.queue_max_depth", "count"},
	{"experiments.self_share", "ratio"},
	{"runner.self_share", "ratio"}, {"runner.cells_executed", "count"}, {"runner.cache_loads", "count"},
	{"runner.cache_hit_ratio", "ratio"}, {"runner.cache_load_ms_p50", "ms"},
	{"runner.cache_store_ms_p50", "ms"}, {"runner.exec_ms_p50", "ms"},
	{"server.self_share", "ratio"}, {"server.requests", "count"}, {"server.shed", "count"},
	{"server.self_ms_p50", "ms"},
	{"sweepapi.self_share", "ratio"},
	{"fleet.self_share", "ratio"}, {"fleet.cells_dispatched", "count"}, {"fleet.cells_stolen", "count"},
	{"fleet.dispatch_retries", "count"}, {"fleet.worker_busy_share", "ratio"}, {"fleet.imbalance", "ratio"},
	{"fleet.duplicate_ratio", "ratio"},
	{"runtime.self_share", "ratio"}, {"runtime.gc_share", "ratio"}, {"runtime.alloc_mb", "MiB"},
	{"harness.self_share", "ratio"}, {"other.self_share", "ratio"},
	{"trace.overhead_ratio", "ratio"}, {"model.fig13_err", "ratio"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics computes every per-layer metric of a traced run and logs
// how much of the traced phases' CPU time the profile sampled.
func layerMetrics(in layerInput, log io.Writer) map[string]metric {
	v := map[string]float64{}
	perRound := 1 / float64(in.rounds)
	att := attribute(&in.phases.prof)
	fmt.Fprintf(log, "profile: %d samples, %.3f s of %.3f s process CPU in %d traced rounds; steal ticks %d\n",
		len(in.phases.prof.ns), float64(att.total)/1e9, in.phases.cpu.Seconds(), in.rounds, in.phases.steal)
	for _, l := range profileLayers {
		v[l+".self_share"] = att.share(l)
	}
	v["runtime.gc_share"] = ratio(float64(att.gcNS), float64(att.total))
	v["runtime.alloc_mb"] = float64(in.phases.alloc) / (1 << 20) * perRound

	// Simulator counters from the cells' own telemetry. A cell keyed
	// frfcfs=true ran its DRAM through the FR-FCFS controller.
	var rowHits, rowMisses, llpWrong, llpAll, alloyHits, alloyAll float64
	for key, res := range in.cells {
		get := func(name string) float64 {
			s, _ := res.Metrics.Get(name)
			return s.Total()
		}
		v["sim.events"] += get("sim/events_fired")
		v["vm.faults"] += get("vm/minor_faults") + get("vm/major_faults")
		v["vm.evictions"] += get("vm/evictions")
		v["cameo.swaps"] += get("cameo/swaps")
		v["tlm.page_moves"] += get("tlm/page_moves")
		llpWrong += get("cameo/llp/mispredict")
		for _, c := range []string{"stk_pred_stk", "stk_pred_off", "off_pred_stk", "off_pred_ok", "off_pred_wrong"} {
			llpAll += get("cameo/llp/case_" + c)
		}
		alloyHits += get("alloy/hits")
		alloyAll += get("alloy/hits") + get("alloy/misses")
		for _, m := range []string{"stacked", "offchip"} {
			if strings.Contains(key, "|frfcfs=true|") {
				v["memctrl.queue_max_depth"] = max(v["memctrl.queue_max_depth"], get("dram/"+m+"/queue_max_depth"))
				continue
			}
			rowHits += get("dram/" + m + "/row_hits")
			rowMisses += get("dram/" + m + "/row_misses")
		}
	}
	if llpAll > 0 {
		v["cameo.llp_accuracy"] = 1 - llpWrong/llpAll
	}
	v["alloy.hit_ratio"] = ratio(alloyHits, alloyAll)
	v["dram.row_hit_ratio"] = ratio(rowHits, rowHits+rowMisses)
	v["sim.ns_per_event"] = ratio(float64(att.ns["sim"])*perRound, v["sim.events"])

	// Access spans: an organization's self time is its Access time minus
	// the device Access time nested in it, over the timed calls.
	spans, aggs := in.tracer.snapshot()
	orgNS, orgTimed := map[string]float64{}, map[string]float64{}
	var dramNS, dramTimed, ctrlNS, ctrlTimed float64
	for _, a := range aggs {
		v[a.Layer+".accesses"] += float64(a.OrgCalls) * perRound
		v["dram.accesses"] += float64(a.DRAMCalls) * perRound
		v["memctrl.accesses"] += float64(a.CtrlCalls) * perRound
		orgNS[a.Layer] += float64(a.OrgNS - a.DRAMNS - a.CtrlNS)
		orgTimed[a.Layer] += float64(a.OrgTimed)
		dramNS += float64(a.DRAMNS)
		dramTimed += float64(a.DRAMTimed)
		ctrlNS += float64(a.CtrlNS)
		ctrlTimed += float64(a.CtrlTimed)
	}
	for layer, ns := range orgNS {
		v[layer+".self_ns_per_access"] = ratio(ns, orgTimed[layer])
	}
	v["dram.self_ns_per_access"] = ratio(dramNS, dramTimed)
	v["memctrl.self_ns_per_access"] = ratio(ctrlNS, ctrlTimed)

	// Service spans and counters.
	var loads, hits float64
	var loadMS, storeMS, execMS, serverSelfMS []float64
	childMS := map[uint64]float64{}
	for _, s := range spans {
		switch s.Name {
		case "runner.cache.load":
			loads++
			if s.Note == "hit" {
				hits++
			}
			loadMS = append(loadMS, ms(s.dur()))
			childMS[s.Parent] += ms(s.dur())
		case "runner.cache.store":
			storeMS = append(storeMS, ms(s.dur()))
			childMS[s.Parent] += ms(s.dur())
		case "runner.exec":
			execMS = append(execMS, ms(s.dur()))
			childMS[s.Parent] += ms(s.dur())
		}
	}
	for _, s := range spans {
		if s.Name == "server.request" && s.Note == "/sweep" {
			serverSelfMS = append(serverSelfMS, ms(s.dur())-childMS[s.ID])
		}
	}
	v["runner.cells_executed"] = in.cellsExecuted
	v["runner.cache_loads"] = loads * perRound
	v["runner.cache_hit_ratio"] = ratio(hits, loads)
	v["runner.cache_load_ms_p50"] = median(loadMS)
	v["runner.cache_store_ms_p50"] = median(storeMS)
	v["runner.exec_ms_p50"] = median(execMS)
	v["server.self_ms_p50"] = median(serverSelfMS)
	svc := func(name string) float64 {
		s, _ := in.service.Get(name)
		return s.Total()
	}
	v["server.requests"] = svc("server/requests") * perRound
	v["server.shed"] = svc("server/shed") * perRound
	co := func(name string) float64 {
		s, _ := in.coordinator.Get(name)
		return s.Total()
	}
	v["fleet.cells_dispatched"] = co("fleet/cells_dispatched") * perRound
	v["fleet.cells_stolen"] = co("fleet/cells_stolen") * perRound
	v["fleet.dispatch_retries"] = co("fleet/dispatch_retries") * perRound
	busy := workerBusy(spans)
	if len(busy) > 0 {
		var sum, busiest float64
		for _, b := range busy {
			sum += b
			busiest = max(busiest, b)
		}
		mean := sum / float64(len(busy))
		v["fleet.worker_busy_share"] = mean
		v["fleet.imbalance"] = ratio(busiest, mean)
	}
	v["fleet.duplicate_ratio"] = ratio(in.cellsExecuted-in.sweepNeeded, in.sweepNeeded)
	v["trace.overhead_ratio"] = in.overhead
	v["model.fig13_err"] = in.fig13Err

	out := make(map[string]metric, len(perLayerNames))
	for _, n := range perLayerNames {
		out[n.name] = metric{v[n.name], n.unit}
	}
	return out
}

// workerBusy returns, per worker, the share of the coordinator's sweep
// time during which the worker was serving at least one of its requests.
func workerBusy(spans []span) map[string]float64 {
	sweeps := map[uint64]span{}
	var sweepTime float64
	for _, s := range spans {
		if s.Name == "fleet.request" && s.Note == "/sweep" {
			sweeps[s.ID] = s
			sweepTime += float64(s.End - s.Start)
		}
	}
	if sweepTime == 0 {
		return nil
	}
	intervals := map[string][][2]int64{}
	for _, s := range spans {
		if s.Name != "server.request" || s.Note != "/sweep" {
			continue
		}
		if _, ok := sweeps[s.Parent]; ok {
			intervals[s.Node] = append(intervals[s.Node], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for node, iv := range intervals {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, end int64
		for _, x := range iv {
			if x[0] > end {
				covered += x[1] - x[0]
				end = x[1]
			} else if x[1] > end {
				covered += x[1] - end
				end = x[1]
			}
		}
		out[node] = float64(covered) / sweepTime
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
