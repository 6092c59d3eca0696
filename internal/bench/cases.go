package bench

import (
	"fmt"
	"os"
	"sync"

	"repro/facade"
	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/gps"
	"repro/internal/graphchi"
	"repro/internal/heap"
	"repro/internal/hyracks"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/offheap"
	"repro/internal/vm"
)

// The registered workloads. Short cases form the CI smoke set and are
// sized to finish in tens of milliseconds each; the full set adds the
// larger framework runs and the ablation/* cases, which measure the
// design choices of §2.4 and §3.6 and report the deterministic work they
// did as metrics. Programs, graphs and datasets are fixtures built lazily
// outside the timed region (the first warmup repetition pays once per
// process).

func init() {
	Register(Case{Name: CalibrationCase, Short: true, Run: runCalibration})
	Register(Case{Name: "interp/fib", Short: true, Run: facadeCase(fibProgs, 0, 8<<20, nil)})
	Register(Case{Name: "heap/alloc-churn", Short: true, Run: facadeCase(churnProgs, 0, 8<<20, nil)})
	Register(Case{Name: "offheap/iter-churn", Short: true, Run: churnPages(false, 300, 400, 48, 200)})
	Register(Case{Name: "graphchi/pagerank/P", Short: true, Run: runGraphchi("P")})
	Register(Case{Name: "graphchi/pagerank/P2", Short: true, Run: runGraphchi("P2")})
	Register(Case{Name: "gps/pagerank/P2", Run: runGPS(false, 3)})
	Register(Case{Name: "hyracks/wordcount/P2", Run: runHyracks})
	Register(Case{Name: "lifetimes/pagerank", Short: true, Run: runLifetimes(graphchi.PageRank)})
	Register(Case{Name: "lifetimes/cc", Run: runLifetimes(graphchi.ConnectedComponents)})
	Register(Case{Name: "tiered/pagerank", Short: true, Run: runTiered(false)})
	Register(Case{Name: "tiered/pagerank-10x", Run: runTiered(true)})

	Register(Case{Name: "ablation/recycle/recycle", Run: churnPages(false, 300, 1000, 48)})
	Register(Case{Name: "ablation/recycle/no-recycle", Run: churnPages(true, 300, 1000, 48)})
	Register(Case{Name: "ablation/headers/heap-objects", Run: facadeCase(pairProgs, 0, 16<<20, bytesPerPair)})
	Register(Case{Name: "ablation/headers/page-records", Run: facadeCase(pairProgs, 1, 16<<20, bytesPerPair)})
	Register(Case{Name: "ablation/alloc/heap", Run: facadeCase(cellProgs, 0, 8<<20, nil)})
	Register(Case{Name: "ablation/alloc/pages", Run: facadeCase(cellProgs, 1, 8<<20, nil)})
	Register(Case{Name: "ablation/mark/workers-1", Run: runMark(1)})
	Register(Case{Name: "ablation/mark/workers-4", Run: runMark(4)})
	Register(Case{Name: "ablation/devirt/resolve", Run: runGPS(false, 4)})
	Register(Case{Name: "ablation/devirt/devirt", Run: runGPS(true, 4)})
	// The DCE side is graphchi/pagerank/P2's workload under the ablation's name.
	Register(Case{Name: "ablation/dce/nodce", Run: runGraphchi("P2-nodce")})
	Register(Case{Name: "ablation/dce/dce", Run: runGraphchi("P2")})
}

// runCalibration is a fixed pure-Go integer workload: no allocation, no
// interpreter, no locks. Its wall time tracks single-core machine speed,
// which is exactly what cross-machine normalization needs.
func runCalibration() (map[string]float64, error) {
	var acc uint64 = 0x9e3779b97f4a7c15
	for i := 0; i < 40_000_000; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
	}
	if acc == 0 {
		return nil, fmt.Errorf("bench: calibration degenerated")
	}
	return map[string]float64{"checksum": float64(acc % 1000)}, nil
}

// progPair is a compiled program P and, when the source names data
// classes, its transformed P'.
type progPair [2]*ir.Program

// lazyProgs compiles src once and, when classes is non-empty, transforms
// it with those data classes.
func lazyProgs(src string, classes ...string) func() (progPair, error) {
	return sync.OnceValues(func() (progPair, error) {
		p, err := facade.Compile(map[string]string{"bench.fj": src})
		if err != nil || len(classes) == 0 {
			return progPair{p}, err
		}
		p2, err := facade.Transform(p, facade.TransformOptions{DataClasses: classes})
		return progPair{p, p2}, err
	})
}

var (
	fibProgs = lazyProgs(`
class Main {
    static int fib(int n) {
        if (n < 2) { return n; }
        return Main.fib(n - 1) + Main.fib(n - 2);
    }
    static void main() { Sys.println(Main.fib(21)); }
}
class D { int x; }
`)
	churnProgs = lazyProgs(`
class Cell { long v; Cell next; }
class Main {
    static void main() {
        int sum = 0;
        for (int r = 0; r < 10; r = r + 1) {
            Cell head = null;
            for (int i = 0; i < 20000; i = i + 1) {
                Cell c = new Cell();
                c.v = i;
                c.next = head;
                head = c;
            }
            sum = sum + (int) head.v;
        }
        Sys.println(sum);
    }
}
`)
	// pairProgs holds pairRecords records live at exit, so the run's
	// allocated bytes measure managed objects (12/16-byte headers) against
	// page records (4/8-byte headers): the §2.4 space argument.
	pairProgs = lazyProgs(`
class Pair { int a; int b; }
class Main {
    static void main() {
        Pair[] ps = new Pair[10000];
        for (int i = 0; i < ps.length; i = i + 1) {
            Pair p = new Pair();
            p.a = i;
            p.b = i + 1;
            ps[i] = p;
        }
        Sys.println(ps.length);
    }
}
`, "Pair", "Main")
	// cellProgs is raw allocation: nursery TLAB allocation plus GC in P,
	// page bump allocation plus iteration release in P'.
	cellProgs = lazyProgs(`
class Cell { long v; }
class Main {
    static void main() {
        for (int i = 0; i < 50000; i = i + 1) {
            Cell c = new Cell();
            c.v = i;
        }
        Sys.println(0);
    }
}
`, "Cell", "Main")
)

const pairRecords = 10000

// bytesPerPair reads the footprint of pairProgs' records: heap bytes for
// P, off-heap bytes in use for P'.
func bytesPerPair(res *facade.Result) map[string]float64 {
	used := res.VM.Heap.Stats().AllocBytes
	if res.VM.RT != nil {
		used = res.VM.RT.Stats().BytesInUse
	}
	return map[string]float64{"bytes_per_record": float64(used) / pairRecords}
}

// facadeCase times facade.Run of program which (0 = P, 1 = P') of a lazily
// compiled pair; metrics, when non-nil, reads the finished run.
func facadeCase(progs func() (progPair, error), which, heapSize int, metrics func(*facade.Result) map[string]float64) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		pp, err := progs()
		if err != nil {
			return nil, err
		}
		res, err := facade.Run(pp[which], facade.WithHeapSize(heapSize))
		if err != nil {
			return nil, err
		}
		defer res.Close()
		if metrics == nil {
			return nil, nil
		}
		return metrics(res), nil
	}
}

// churnPages exercises the iteration-based page store: each of iters
// iterations allocates perIter records of every size, then releases them
// all. With recycling disabled every iteration creates fresh pages.
func churnPages(disableRecycle bool, iters, perIter int, sizes ...int) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		rt := offheap.NewRuntime()
		rt.DisableRecycle = disableRecycle
		ic := 0
		s := rt.NewIterScope(nil, &ic, 0, nil)
		defer s.Close()
		for iter := 0; iter < iters; iter++ {
			s.IterationStart()
			m := s.Current()
			for j := 0; j < perIter; j++ {
				for k, size := range sizes {
					if _, err := m.AllocRecord(uint16(k+1), size); err != nil {
						return nil, err
					}
				}
			}
			s.IterationEnd()
		}
		st := rt.Stats()
		return map[string]float64{
			"pages_created":  float64(st.PagesCreated),
			"pages_recycled": float64(st.PagesRecycled),
		}, nil
	}
}

// graphchiFixture is the Table 2 workload: P, P', P' without dead-code
// elimination ("P2-nodce"), and the 2000V/30000E graph sharded for
// PageRank and for Connected Components.
var graphchiFixture = sync.OnceValues(func() (*graphchiFix, error) {
	p, p2, err := graphchi.BuildPrograms()
	if err != nil {
		return nil, err
	}
	noDCE, err := core.Transform(p, core.Options{DataClasses: graphchi.DataClasses, DisableDCE: true})
	if err != nil {
		return nil, err
	}
	g := datagen.PowerLawGraph(2000, 30000, 42)
	return &graphchiFix{
		progs: map[string]*ir.Program{"P": p, "P2": p2, "P2-nodce": noDCE},
		pr:    graphchi.Shard(g, 10, false),
		cc:    graphchi.Shard(g, 10, true),
	}, nil
})

type graphchiFix struct {
	progs  map[string]*ir.Program
	pr, cc *graphchi.ShardedGraph
}

// tiered10x is the acceptance-scale graph (20000V/300000E), 10x Table 2's.
var tiered10x = sync.OnceValue(func() *graphchi.ShardedGraph {
	return graphchi.Shard(datagen.PowerLawGraph(20000, 300000, 42), 10, false)
})

// graphchiRun runs 2 iterations of app over sg with 2 workers on a fresh
// VM built for prog.
func graphchiRun(prog *ir.Program, sg *graphchi.ShardedGraph, app graphchi.App, cfg vm.Config) (*vm.VM, *graphchi.Metrics, error) {
	m, err := vm.New(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	met, _, err := graphchi.Run(m, sg, graphchi.Config{
		App: app, Workers: 2, Iterations: 2, MemoryBudget: 8 << 20,
	})
	return m, met, err
}

// runGraphchi times PageRank with one fixture program. interp_instrs and
// dce_removed are the liveness-driven dead-code elimination ablation's
// counters: same output, fewer interpreted instructions.
func runGraphchi(variant string) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		fx, err := graphchiFixture()
		if err != nil {
			return nil, err
		}
		prog := fx.progs[variant]
		_, met, err := graphchiRun(prog, fx.pr, graphchi.PageRank, vm.Config{HeapSize: 16 << 20})
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"edges_per_s":   met.Throughput(),
			"gc_ms":         float64(met.GT.Milliseconds()),
			"interp_instrs": float64(met.Obs.Counters[obs.CtrInstructions]),
			"dce_removed":   float64(prog.DCERemoved),
		}, nil
	}
}

// runTiered measures GraphChi PageRank on P' with the off-heap disk tier
// engaged. The short case squeezes the Table 2 graph under a tight
// watermark; the 10x case runs the acceptance-scale graph under a DRAM cap
// well below the dataset, so spill/promote traffic is on the critical
// path. pages_spilled is reported as a metric and must be nonzero — a run
// that never spills is measuring the wrong thing.
func runTiered(atScale bool) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		fx, err := graphchiFixture()
		if err != nil {
			return nil, err
		}
		shard, heap, high, low := fx.pr, 16<<20, 12, 6
		if atScale {
			shard, heap, high, low = tiered10x(), 48<<20, 64, 32
		}
		// The tier's spill file lives until VM teardown; give each rep its
		// own directory so nothing accumulates in the system temp dir.
		dir, err := os.MkdirTemp("", "bench-tier-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		met, _, err := graphchi.RunProgram(fx.progs["P2"], heap, shard, graphchi.Config{
			App: graphchi.PageRank, Workers: 2, Iterations: 2, MemoryBudget: 8 << 20,
			Tiering: &offheap.TierConfig{Dir: dir, HighWater: high, LowWater: low},
		})
		if err != nil {
			return nil, err
		}
		if met.PagesSpilled == 0 {
			return nil, fmt.Errorf("bench: tiered run never spilled (watermark %d/%d)", high, low)
		}
		return map[string]float64{
			"edges_per_s":    met.Throughput(),
			"pages_spilled":  float64(met.PagesSpilled),
			"pages_promoted": float64(met.PagesPromoted),
		}, nil
	}
}

// runLifetimes measures the lifetime pass's placement effect on the
// Table 2 workloads: the same GraphChi run with lifetimes off and with
// the inferred placement enforced. promoted_off vs promoted_enforce is
// the young-generation evacuation-copy count the pretenuring removes;
// region_allocs counts the epoch-local sites placed in bulk-reset regions.
func runLifetimes(app graphchi.App) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		fx, err := graphchiFixture()
		if err != nil {
			return nil, err
		}
		sg := fx.pr
		if app == graphchi.ConnectedComponents {
			sg = fx.cc
		}
		p := fx.progs["P"]
		off, _, err := graphchiRun(p, sg, app, vm.Config{HeapSize: 10 << 20})
		if err != nil {
			return nil, err
		}
		enf, _, err := graphchiRun(p, sg, app, vm.Config{
			HeapSize: 10 << 20, Lifetimes: analysis.Lifetimes(p), LifetimeMode: heap.LifetimeEnforce,
		})
		if err != nil {
			return nil, err
		}
		snap := enf.Obs().Snapshot()
		return map[string]float64{
			"promoted_off":     float64(off.Heap.Stats().Promoted),
			"promoted_enforce": float64(enf.Heap.Stats().Promoted),
			"pretenured":       float64(snap.Counters[obs.CtrLifetimePretenured]),
			"region_allocs":    float64(snap.Counters[obs.CtrLifetimeRegionAllocs]),
		}, nil
	}
}

// gpsFixture is the §4.3 workload: P' with calls resolved at run time and
// with §3.6's static devirtualization, and a 4000V/60000E graph.
var gpsFixture = sync.OnceValues(func() (*gpsFix, error) {
	p, resolve, err := gps.BuildPrograms()
	if err != nil {
		return nil, err
	}
	devirt, err := core.Transform(p, core.Options{DataClasses: gps.DataClasses, Devirtualize: true})
	if err != nil {
		return nil, err
	}
	return &gpsFix{resolve: resolve, devirt: devirt, g: datagen.PowerLawGraph(4000, 60000, 100)}, nil
})

type gpsFix struct {
	resolve, devirt *ir.Program
	g               *datagen.Graph
}

func runGPS(devirt bool, supersteps int) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		fx, err := gpsFixture()
		if err != nil {
			return nil, err
		}
		prog := fx.resolve
		if devirt {
			prog = fx.devirt
		}
		res, err := gps.Run(prog, fx.g, gps.Config{
			App: gps.PageRank, Nodes: 2, HeapPerNode: 16 << 20, Supersteps: supersteps, Seed: 7,
		})
		if err != nil {
			return nil, err
		}
		return map[string]float64{"gc_ms": float64(res.GT.Milliseconds())}, nil
	}
}

// hyracksFixture is WordCount's P' and a skewed corpus in 2 partitions.
var hyracksFixture = sync.OnceValues(func() (*hyracksFix, error) {
	_, p2, err := hyracks.BuildPrograms()
	if err != nil {
		return nil, err
	}
	corpus := datagen.CorpusSkewed(3*48<<10, 200, 3)
	return &hyracksFix{p2: p2, parts: datagen.Partition(corpus, 2)}, nil
})

type hyracksFix struct {
	p2    *ir.Program
	parts [][]byte
}

func runHyracks() (map[string]float64, error) {
	fx, err := hyracksFixture()
	if err != nil {
		return nil, err
	}
	res, err := hyracks.RunJob(fx.p2, hyracks.WordCountJob{}, fx.parts,
		cluster.Config{NumNodes: 2, HeapPerNode: 4 << 20}, int64(4<<20)*8, dfs.New())
	if err != nil {
		return nil, err
	}
	ome := 0.0
	if res.OME {
		ome = 1
	}
	return map[string]float64{"ome": ome, "gc_ms": float64(res.GT.Milliseconds())}, nil
}

// runMark times one full collection over a large live object graph with
// the given number of mark workers. The graph is built once per worker
// count, outside the timed repetitions, so a repetition is only ForceGC.
func runMark(workers int) func() (map[string]float64, error) {
	fixture := sync.OnceValues(func() (func() error, error) {
		f, err := lang.Parse("bench.fj", "class Object { }\nclass Node { int v; Node next; }\n")
		if err != nil {
			return nil, err
		}
		h, err := lang.BuildHierarchy(f)
		if err != nil {
			return nil, err
		}
		hp := heap.New(heap.Config{HeapSize: 96 << 20, GCWorkers: workers}, h)
		tc := hp.RegisterThread()
		tc.EndExternal()
		node := h.Class("Node")
		next := node.FindField("next")
		// Wide graph: one root array fanning out to 150k short chains
		// (marking a single linked list cannot parallelize).
		const fanout = 150000
		root, err := hp.AllocArray(tc, lang.ClassType("Node"), fanout, 0)
		if err != nil {
			return nil, err
		}
		hp.AddRoots(heap.RootFunc(func(visit func(heap.Addr) heap.Addr) { root = visit(root) }))
		for i := 0; i < fanout; i++ {
			a, err := hp.AllocObject(tc, node, 0)
			if err != nil {
				return nil, err
			}
			c, err := hp.AllocObject(tc, node, 0)
			if err != nil {
				return nil, err
			}
			hp.SetRef(a, next.Offset, c)
			hp.SetRef(root, i*8, a)
		}
		return func() error { return hp.ForceGC(tc, true) }, nil
	})
	return func() (map[string]float64, error) {
		gc, err := fixture()
		if err != nil {
			return nil, err
		}
		return nil, gc()
	}
}
