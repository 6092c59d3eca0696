package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/facade"
	"repro/internal/obs"
)

// sample is one job's outcome.
type sample struct {
	// key names the job's input: jobs with one key repeat the same work,
	// so their counts should repeat exactly.
	key     string
	latency time.Duration
	ok      bool
	peakMem int64 // managed-heap peak + native-page peak, bytes
	// layer holds the job's per-layer values, by metric name.
	layer map[string]float64
}

// Per-layer metric names and units, in report order. Every traced run
// reports all of them; a layer a workload does not use reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"lang.parse_ms", "ms"}, {"lang.check_ms", "ms"},
	{"lower.lower_ms", "ms"}, {"lower.ir_instrs", "count"},
	{"core.transform_ms", "ms"}, {"core.ir_instrs", "count"},
	{"analysis.verify_ms", "ms"}, {"analysis.lifetimes_ms", "ms"},
	{"vm.build_ms", "ms"}, {"vm.reset_ms", "ms"},
	{"vm.instructions", "count"}, {"vm.ns_per_instr", "ns"}, {"vm.boundary_crossings", "count"},
	{"heap.gc_pause_ms", "ms"}, {"heap.gc_share", "frac"}, {"heap.safepoint_wait_ms", "ms"},
	{"heap.minor_gcs", "count"}, {"heap.full_gcs", "count"}, {"heap.alloc_mb", "MB"},
	{"heap.promoted", "MB"}, {"heap.peak_mb", "MB"},
	{"offheap.pages_created", "count"}, {"offheap.pages_recycled", "count"},
	{"offheap.recycle_ratio", "frac"}, {"offheap.pages_live_hw", "count"}, {"offheap.peak_mb", "MB"},
	{"offheap.pages_spilled", "count"}, {"offheap.pages_promoted", "count"},
	{"offheap.promote_per_spill", "frac"}, {"offheap.tier_stall_ms", "ms"}, {"offheap.tier_idle_ms", "ms"},
	{"graphchi.load_ms", "ms"}, {"graphchi.update_ms", "ms"}, {"graphchi.sub_iters", "count"},
	{"hyracks.shuffled_mb", "MB"}, {"cluster.frames_sent", "count"}, {"cluster.bytes_sent", "bytes"},
	{"server.submit_ms", "ms"}, {"server.queue_ms", "ms"}, {"server.run_ms", "ms"},
	{"server.run_warm_ms", "ms"}, {"server.run_cold_ms", "ms"}, {"server.overhead_ms", "ms"},
	{"server.warm_hit_rate", "frac"}, {"server.rejections", "count"}, {"server.retries", "count"},
	{"server.pool_rebuilds", "count"},
	{"bench.trace_overhead_frac", "frac"}, {"bench.tail_pct", "%"}, {"bench.samples", "count"},
}

// countMetrics are the per-job amounts that depend only on the job's
// input; the traced run reports whether each repeated exactly.
var countMetrics = []string{
	"vm.instructions", "vm.boundary_crossings",
	"heap.minor_gcs", "heap.full_gcs", "heap.alloc_mb", "heap.promoted", "heap.peak_mb",
	"offheap.pages_created", "offheap.pages_recycled", "offheap.pages_live_hw", "offheap.peak_mb",
	"offheap.pages_spilled", "offheap.pages_promoted",
	"graphchi.sub_iters", "hyracks.shuffled_mb", "cluster.frames_sent", "cluster.bytes_sent",
}

const mib = 1 << 20

// obsView is the part of an observability snapshot the layer metrics read.
type obsView struct {
	counters, gauges map[string]int64
	histSum          func(name string) int64
}

func viewOfSnapshot(s obs.Snapshot) obsView {
	return obsView{s.Counters, s.Gauges, func(n string) int64 { return s.Histograms[n].Sum }}
}

func viewOfRunStats(s *facade.RunStats) obsView {
	return obsView{s.Counters, s.Gauges, func(n string) int64 { return s.Histograms[n].Sum }}
}

// addObs adds one VM's counters to a job's layer values. Page high-water
// marks take the maximum across VMs, like the per-node peak memory.
func addObs(l map[string]float64, v obsView) {
	l["vm.instructions"] += float64(v.counters[obs.CtrInstructions])
	l["vm.boundary_crossings"] += float64(v.counters[obs.CtrBoundaryCalls])
	l["heap.gc_pause_ms"] += float64(v.histSum(obs.HistGCPause)) / 1e6
	l["heap.safepoint_wait_ms"] += float64(v.histSum(obs.HistSafepointWait)) / 1e6
	l["heap.alloc_mb"] += float64(v.histSum(obs.HistAllocSize)) / mib
	l["heap.promoted"] += float64(v.counters[obs.CtrPromotedBytes]) / mib
	acq, rec := v.counters[obs.CtrPageAcquires], v.counters[obs.CtrPageRecycles]
	l["offheap.pages_created"] += float64(acq - rec)
	l["offheap.pages_recycled"] += float64(rec)
	l["offheap.pages_live_hw"] = max(l["offheap.pages_live_hw"], float64(v.gauges[obs.GaugePagesLive+".hw"]))
	l["offheap.pages_spilled"] += float64(v.counters[obs.CtrPagesSpilled])
	l["offheap.pages_promoted"] += float64(v.counters[obs.CtrPagesPromoted])
}

// layerMedian is the median of one layer value over the samples.
func layerMedian(samples []sample, name string) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.layer[name]
	}
	return medianF(xs)
}

func layerSum(samples []sample, name string) float64 {
	var t float64
	for _, s := range samples {
		t += s.layer[name]
	}
	return t
}

// perJobLayers sets the layer metrics that are medians of per-job values
// (plus the ratios derived from them) on m; busy is the per-job time name
// the interpreter and GC shares are taken against ("" = job latency).
func perJobLayers(m map[string]float64, samples []sample, busy string) {
	for _, n := range countMetrics {
		m[n] = layerMedian(samples, n)
	}
	for _, n := range []string{"heap.gc_pause_ms", "heap.safepoint_wait_ms", "graphchi.load_ms", "graphchi.update_ms"} {
		m[n] = layerMedian(samples, n)
	}
	var busyMS float64
	for _, s := range samples {
		if busy == "" {
			busyMS += ms(s.latency)
		} else {
			busyMS += s.layer[busy]
		}
	}
	if busyMS > 0 {
		m["heap.gc_share"] = layerSum(samples, "heap.gc_pause_ms") / busyMS
	}
	if instr := layerSum(samples, "vm.instructions"); instr > 0 {
		m["vm.ns_per_instr"] = busyMS * 1e6 / instr
	}
	if c, r := m["offheap.pages_created"], m["offheap.pages_recycled"]; c+r > 0 {
		m["offheap.recycle_ratio"] = r / (c + r)
	}
	if sp := m["offheap.pages_spilled"]; sp > 0 {
		m["offheap.promote_per_spill"] = m["offheap.pages_promoted"] / sp
	}
}

// exactness reports, for each count metric, whether it repeated exactly
// across the jobs of each input key, with its range over all jobs.
func exactness(w io.Writer, samples []sample) {
	byKey := make(map[string][]sample)
	var keys []string
	for _, s := range samples {
		if _, seen := byKey[s.key]; !seen {
			keys = append(keys, s.key)
		}
		byKey[s.key] = append(byKey[s.key], s)
	}
	sort.Strings(keys)
	for _, n := range countMetrics {
		exact, repeated := true, false
		lo, hi := 0.0, 0.0
		for i, s := range samples {
			v := s.layer[n]
			if i == 0 || v < lo {
				lo = v
			}
			if i == 0 || v > hi {
				hi = v
			}
		}
		for _, k := range keys {
			g := byKey[k]
			if len(g) > 1 {
				repeated = true
			}
			for _, s := range g[1:] {
				if s.layer[n] != g[0].layer[n] {
					exact = false
				}
			}
		}
		verdict := "exact"
		switch {
		case !repeated:
			verdict = "not repeated"
		case !exact:
			verdict = "NOT exact"
		}
		fmt.Fprintf(w, "count %-26s %s across %d jobs of %d inputs (range %s..%s)\n",
			n, verdict, len(samples), len(keys), fmtNum(lo), fmtNum(hi))
	}
}

func fmtNum(v float64) string { return fmt.Sprintf("%.6g", v) }
