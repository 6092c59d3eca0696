package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/graphchi"
	"repro/internal/hyracks"
	"repro/internal/ir"
	"repro/internal/offheap"
	"repro/internal/vm"
)

// batch is a batch workload's runner: one sequential caller runs whole
// jobs back to back in this process.
type batch struct {
	job    func(tr *tracer, id int) sample
	probes func(tr *tracer, traced []sample, m map[string]float64, next *int) error
	// lowered and prog are the programs set-up compiled, for the compiler
	// layers' instruction counts.
	lowered, prog *ir.Program
}

func (b *batch) run(tr *tracer, until time.Time, firstID int) []sample {
	var out []sample
	for id := firstID; time.Now().Before(until); id++ {
		out = append(out, b.job(tr, id))
	}
	return out
}

// cpu is this process's user+sys CPU time: batch jobs run in-process.
func (b *batch) cpu() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func (b *batch) layers(tr *tracer, traced []sample, m map[string]float64, next *int) error {
	perJobLayers(m, traced, "")
	compileLayers(m, tr, b.lowered, b.prog)
	if b.probes != nil {
		if err := b.probes(tr, traced, m, next); err != nil {
			return err
		}
	}
	m["vm.build_ms"] = ms(medianDur(tr.durations("vm.New")))
	m["vm.reset_ms"] = ms(medianDur(tr.durations("vm.ResetForReuse")))
	return nil
}

func (b *batch) close() error { return nil }

// The GraphChi workloads: Table 2 PageRank at one heap size.
const (
	gcVertices   = 20000
	gcEdges      = 300000
	gcShards     = 20
	gcWorkers    = 2
	gcIterations = 2
	gcHeap       = 24 << 20
	gcBudget     = 12 << 20
	bytesPerEdge = 48 // the engine's default load estimator
	tierHigh     = 64 // tiered workload's DRAM watermarks, in pages
	tierLow      = 32
	tierNever    = 100000 // a watermark no job reaches: a tier that never spills
	twinJobs     = 5
)

func setupGraphChi(e *env, tr *tracer, transform, tiered bool) (runner, error) {
	g := datagen.PowerLawGraph(gcVertices, gcEdges, uint64(e.seed))
	sg := graphchi.Shard(g, gcShards, false)
	var data []string
	if transform {
		data = graphchi.DataClasses
	}
	lowered, prog, err := compile(tr, 0, map[string]string{"graphchi.fj": graphchi.Source}, data)
	if err != nil {
		return nil, err
	}
	cfg := graphchi.Config{
		App: graphchi.PageRank, Workers: gcWorkers, Iterations: gcIterations,
		MemoryBudget: gcBudget, BytesPerEdge: bytesPerEdge,
	}
	want := referencePageRank(sg, sg.Intervals(gcBudget/bytesPerEdge), gcIterations)

	// job runs what graphchi.RunProgram runs (vm.New, then graphchi.Run)
	// and times exactly that; resetting the VM afterwards, outside the
	// timed window, closes and removes a tiered job's spill file.
	job := func(tr *tracer, id int, tiering *offheap.TierConfig) sample {
		s := sample{key: "graph", layer: make(map[string]float64)}
		var (
			machine *vm.VM
			met     *graphchi.Metrics
			vals    []float64
		)
		start := time.Now()
		end, root := tr.begin("job", 0, id)
		err := tr.do("vm.New", root, id, func() (err error) {
			machine, err = vm.New(prog, vm.Config{HeapSize: gcHeap, Tiering: tiering})
			return
		})
		if err == nil {
			err = tr.do("graphchi.Run", root, id, func() (err error) {
				met, vals, err = graphchi.Run(machine, sg, cfg)
				return
			})
		}
		s.latency = time.Since(start)
		end()
		if machine != nil {
			_ = tr.do("vm.ResetForReuse", 0, id, func() error { return machine.ResetForReuse(vm.ResetConfig{}) })
		}
		if err == nil {
			err = checkPageRank(vals, want)
		}
		if err != nil {
			e.logf("job %d: %v", id, err)
			return s
		}
		s.ok = true
		s.peakMem = met.PM
		addObs(s.layer, viewOfSnapshot(met.Obs))
		s.layer["heap.minor_gcs"] = float64(met.MinorGCs)
		s.layer["heap.full_gcs"] = float64(met.FullGCs)
		s.layer["heap.peak_mb"] = float64(met.HeapPeak) / mib
		s.layer["offheap.peak_mb"] = float64(met.NativePeak) / mib
		s.layer["graphchi.load_ms"] = ms(met.LT)
		s.layer["graphchi.update_ms"] = ms(met.UT)
		s.layer["graphchi.sub_iters"] = float64(met.SubIters)
		return s
	}
	tierAt := func(high, low int) *offheap.TierConfig {
		return &offheap.TierConfig{Dir: e.tmp, HighWater: high, LowWater: low}
	}
	var tiering *offheap.TierConfig
	if tiered {
		tiering = tierAt(tierHigh, tierLow)
	}
	b := &batch{
		job:     func(tr *tracer, id int) sample { return job(tr, id, tiering) },
		lowered: lowered,
		prog:    prog,
	}
	if tiered {
		// The tier's cost against an untiered twin on the same input:
		// with the workload's watermarks (stall) and with a tier that
		// never spills (idle). Twins alternate so drift hits both alike.
		b.probes = func(tr *tracer, traced []sample, m map[string]float64, next *int) error {
			var plain, never []time.Duration
			for i := 0; i < twinJobs; i++ {
				for _, t := range []struct {
					cfg *offheap.TierConfig
					out *[]time.Duration
				}{{nil, &plain}, {tierAt(tierNever, tierNever/2), &never}} {
					s := job(tr, *next, t.cfg)
					*next++
					if !s.ok {
						return fmt.Errorf("tier twin job failed")
					}
					*t.out = append(*t.out, s.latency)
				}
			}
			tieredMed := medianDur(latencies(traced))
			m["offheap.tier_stall_ms"] = ms(tieredMed - medianDur(plain))
			m["offheap.tier_idle_ms"] = ms(medianDur(never) - medianDur(plain))
			return nil
		}
	}
	if s := b.job(nil, 0); !s.ok {
		return nil, fmt.Errorf("warm-up job failed")
	}
	return b, nil
}

// The Hyracks workload: Table 3 WordCount on P' at the "10GB" size.
const (
	hyNodes    = 2
	hyHeap     = 4 << 20 // per node
	hyUnit     = 96 << 10
	hySize     = 10 // paper-GB
	hyUniq     = 200
	hyFairCap  = 8 * hyHeap // P' fairness cap, as in `repro table3`
	hyVMProbes = 5
)

func setupHyracks(e *env, tr *tracer) (runner, error) {
	corpus := datagen.CorpusSkewed(hySize*hyUnit, hyUniq, uint64(e.seed))
	parts := datagen.Partition(corpus, hyNodes)
	lowered, prog, err := compile(tr, 0, map[string]string{"hyracks.fj": hyracks.Source}, hyracks.DataClasses)
	if err != nil {
		return nil, err
	}
	want := referenceWordCount(parts)
	ccfg := cluster.Config{NumNodes: hyNodes, HeapPerNode: hyHeap}

	job := func(tr *tracer, id int) sample {
		s := sample{key: "corpus", layer: make(map[string]float64)}
		fs := dfs.New()
		var res *hyracks.Result
		start := time.Now()
		err := tr.do("hyracks.RunJob", 0, id, func() (err error) {
			res, err = hyracks.RunJob(prog, hyracks.WordCountJob{}, parts, ccfg, hyFairCap, fs)
			return
		})
		s.latency = time.Since(start)
		if err == nil && res.OME {
			err = fmt.Errorf("out of memory (peak %d bytes)", res.PM)
		}
		if err == nil {
			err = checkWordCount(readOutputs(fs, "/out/WC/"), want)
		}
		if err != nil {
			e.logf("job %d: %v", id, err)
			return s
		}
		s.ok = true
		s.peakMem = res.PM
		for _, snap := range res.NodeObs {
			addObs(s.layer, viewOfSnapshot(snap))
		}
		s.layer["heap.minor_gcs"] = float64(res.MinorGCs)
		s.layer["heap.full_gcs"] = float64(res.FullGCs)
		s.layer["heap.peak_mb"] = float64(res.HeapPeak) / mib
		s.layer["offheap.peak_mb"] = float64(res.NativePeak) / mib
		s.layer["hyracks.shuffled_mb"] = res.ShuffledMB
		s.layer["cluster.frames_sent"] = float64(res.Net.FramesSent)
		s.layer["cluster.bytes_sent"] = float64(res.Net.BytesSent)
		return s
	}
	b := &batch{job: job, lowered: lowered, prog: prog}
	// RunJob builds its node VMs inside the call, so the VM layer is
	// timed on probe VMs with a node's configuration.
	b.probes = func(tr *tracer, _ []sample, _ map[string]float64, _ *int) error {
		for i := 0; i < hyVMProbes; i++ {
			var m *vm.VM
			if err := tr.do("vm.New", 0, 0, func() (err error) { m, err = vm.New(prog, vm.Config{HeapSize: hyHeap}); return }); err != nil {
				return err
			}
			if err := tr.do("vm.ResetForReuse", 0, 0, func() error { return m.ResetForReuse(vm.ResetConfig{}) }); err != nil {
				return err
			}
		}
		return nil
	}
	if s := b.job(nil, 0); !s.ok {
		return nil, fmt.Errorf("warm-up job failed")
	}
	return b, nil
}

// readOutputs returns the files under prefix in name order.
func readOutputs(fs *dfs.FS, prefix string) [][]byte {
	names := fs.List(prefix)
	sort.Strings(names)
	out := make([][]byte, 0, len(names))
	for _, n := range names {
		if b, err := fs.Read(n); err == nil {
			out = append(out, b)
		}
	}
	return out
}

func latencies(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.latency
	}
	return out
}
