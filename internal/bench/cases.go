package bench

import (
	"fmt"
	"os"
	"sync"

	"repro/facade"
	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/gps"
	"repro/internal/graphchi"
	"repro/internal/heap"
	"repro/internal/hyracks"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/offheap"
	"repro/internal/vm"
)

// The registered workloads. Short cases form the CI smoke set and are
// sized to finish in tens of milliseconds each; the full set adds the
// larger framework runs. Program compilation happens lazily outside the
// timed region (the first warmup repetition pays it once per process).

func init() {
	Register(Case{Name: CalibrationCase, Short: true, Run: runCalibration})
	Register(Case{Name: "interp/fib", Short: true, Run: lazyFacade(fibSrc, 8<<20)})
	Register(Case{Name: "heap/alloc-churn", Short: true, Run: lazyFacade(churnSrc, 8<<20)})
	Register(Case{Name: "offheap/iter-churn", Short: true, Run: runOffheapChurn})
	Register(Case{Name: "graphchi/pagerank/P", Short: true, Run: lazyGraphchi(false)})
	Register(Case{Name: "graphchi/pagerank/P2", Short: true, Run: lazyGraphchi(true)})
	Register(Case{Name: "gps/pagerank/P2", Run: runGPS})
	Register(Case{Name: "hyracks/wordcount/P2", Run: runHyracks})
	Register(Case{Name: "lifetimes/pagerank", Short: true, Run: runLifetimes(graphchi.PageRank)})
	Register(Case{Name: "lifetimes/cc", Run: runLifetimes(graphchi.ConnectedComponents)})
	Register(Case{Name: "tiered/pagerank", Short: true, Run: runTiered(false)})
	Register(Case{Name: "tiered/pagerank-10x", Run: runTiered(true)})
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

const fibSrc = `
class Main {
    static int fib(int n) {
        if (n < 2) { return n; }
        return Main.fib(n - 1) + Main.fib(n - 2);
    }
    static void main() { Sys.println(Main.fib(21)); }
}
class D { int x; }
`

const churnSrc = `
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
`

// lazyFacade compiles src once and times facade.Run per repetition.
func lazyFacade(src string, heapSize int) func() (map[string]float64, error) {
	var once sync.Once
	var prog *ir.Program
	var cErr error
	return func() (map[string]float64, error) {
		once.Do(func() {
			prog, cErr = facade.Compile(map[string]string{"bench.fj": src})
		})
		if cErr != nil {
			return nil, cErr
		}
		res, err := facade.Run(prog, facade.WithHeapSize(heapSize))
		if err != nil {
			return nil, err
		}
		res.Close()
		return nil, nil
	}
}

// runOffheapChurn exercises the iteration-based page store: open an
// iteration, fill pages across size classes, release — the path the
// per-scope page cache accelerates.
func runOffheapChurn() (map[string]float64, error) {
	rt := offheap.NewRuntime()
	ic := 0
	s := rt.NewIterScope(nil, &ic, 0, nil)
	defer s.Close()
	for iter := 0; iter < 300; iter++ {
		s.IterationStart()
		m := s.Current()
		for j := 0; j < 400; j++ {
			if _, err := m.AllocRecord(1, 48); err != nil {
				return nil, err
			}
			if _, err := m.AllocRecord(2, 200); err != nil {
				return nil, err
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

var (
	graphchiOnce  sync.Once
	graphchiP     *ir.Program
	graphchiP2    *ir.Program
	graphchiErr   error
	graphchiShard *graphchi.ShardedGraph
)

func lazyGraphchi(transformed bool) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		graphchiOnce.Do(func() {
			graphchiP, graphchiP2, graphchiErr = graphchi.BuildPrograms()
			if graphchiErr == nil {
				g := datagen.PowerLawGraph(2000, 30000, 42)
				graphchiShard = graphchi.Shard(g, 10, false)
			}
		})
		if graphchiErr != nil {
			return nil, graphchiErr
		}
		prog := graphchiP
		if transformed {
			prog = graphchiP2
		}
		m, err := vm.New(prog, vm.Config{HeapSize: 16 << 20})
		if err != nil {
			return nil, err
		}
		met, _, err := graphchi.Run(m, graphchiShard, graphchi.Config{
			App: graphchi.PageRank, Workers: 2, Iterations: 2, MemoryBudget: 8 << 20,
		})
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"edges_per_s": met.Throughput(),
			"gc_ms":       float64(met.GT.Milliseconds()),
		}, nil
	}
}

var (
	tieredOnce  sync.Once
	tieredErr   error
	tieredShard *graphchi.ShardedGraph // 10x the Table 2 graph
)

// runTiered measures GraphChi PageRank on P' with the off-heap disk tier
// engaged. The short case squeezes the Table 2 graph under a tight
// watermark; the 10x case runs the acceptance-scale graph (20000V/300000E)
// under a DRAM cap well below the dataset, so spill/promote traffic is on
// the critical path. pages_spilled is reported as a metric and must be
// nonzero — a run that never spills is measuring the wrong thing.
func runTiered(atScale bool) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		graphchiOnce.Do(func() {
			graphchiP, graphchiP2, graphchiErr = graphchi.BuildPrograms()
			if graphchiErr == nil {
				g := datagen.PowerLawGraph(2000, 30000, 42)
				graphchiShard = graphchi.Shard(g, 10, false)
			}
		})
		if graphchiErr != nil {
			return nil, graphchiErr
		}
		shard, heap, high, low := graphchiShard, 16<<20, 12, 6
		if atScale {
			tieredOnce.Do(func() {
				g := datagen.PowerLawGraph(20000, 300000, 42)
				tieredShard = graphchi.Shard(g, 10, false)
			})
			if tieredErr != nil {
				return nil, tieredErr
			}
			shard, heap, high, low = tieredShard, 48<<20, 64, 32
		}
		// The tier's spill file lives until VM teardown; give each rep its
		// own directory so nothing accumulates in the system temp dir.
		dir, err := os.MkdirTemp("", "bench-tier-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		met, _, err := graphchi.RunProgram(graphchiP2, heap, shard, graphchi.Config{
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

var (
	gpsOnce sync.Once
	gpsP2   *ir.Program
	gpsErr  error
	gpsG    *datagen.Graph
)

func runGPS() (map[string]float64, error) {
	gpsOnce.Do(func() {
		_, gpsP2, gpsErr = gps.BuildPrograms()
		if gpsErr == nil {
			gpsG = datagen.PowerLawGraph(4000, 60000, 100)
		}
	})
	if gpsErr != nil {
		return nil, gpsErr
	}
	res, err := gps.Run(gpsP2, gpsG, gps.Config{
		App: gps.PageRank, Nodes: 2, HeapPerNode: 16 << 20, Supersteps: 3, Seed: 7,
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"gc_ms": float64(res.GT.Milliseconds())}, nil
}

var (
	hyOnce  sync.Once
	hyP2    *ir.Program
	hyErr   error
	hyParts [][]byte
)

func runHyracks() (map[string]float64, error) {
	hyOnce.Do(func() {
		_, hyP2, hyErr = hyracks.BuildPrograms()
		if hyErr == nil {
			corpus := datagen.CorpusSkewed(3*48<<10, 200, 3)
			hyParts = datagen.Partition(corpus, 2)
		}
	})
	if hyErr != nil {
		return nil, hyErr
	}
	res, err := hyracks.RunJob(hyP2, hyracks.WordCountJob{}, hyParts,
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

var (
	ltOnce  sync.Once
	ltP     *ir.Program
	ltLifes []ir.Lifetime
	ltErr   error
	ltPR    *graphchi.ShardedGraph
	ltCC    *graphchi.ShardedGraph
)

// runLifetimes measures the lifetime pass's placement effect on the
// Table 2 workloads: the same GraphChi run with lifetimes off and with
// the inferred placement enforced. promoted_off vs promoted_enforce is
// the young-generation evacuation-copy count the pretenuring removes.
func runLifetimes(app graphchi.App) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		ltOnce.Do(func() {
			ltP, _, ltErr = graphchi.BuildPrograms()
			if ltErr != nil {
				return
			}
			ltLifes = analysis.Lifetimes(ltP)
			g := datagen.PowerLawGraph(2000, 30000, 42)
			ltPR = graphchi.Shard(g, 10, false)
			ltCC = graphchi.Shard(g, 10, true)
		})
		if ltErr != nil {
			return nil, ltErr
		}
		sg := ltPR
		if app == graphchi.ConnectedComponents {
			sg = ltCC
		}
		run := func(mode heap.LifetimeMode) (promoted, pretenured float64, err error) {
			cfg := vm.Config{HeapSize: 10 << 20}
			if mode != heap.LifetimeOff {
				cfg.Lifetimes = ltLifes
				cfg.LifetimeMode = mode
			}
			m, err := vm.New(ltP, cfg)
			if err != nil {
				return 0, 0, err
			}
			if _, _, err := graphchi.Run(m, sg, graphchi.Config{
				App: app, Workers: 2, Iterations: 2, MemoryBudget: 8 << 20,
			}); err != nil {
				return 0, 0, err
			}
			promoted = float64(m.Heap.Stats().Promoted)
			pretenured = float64(m.Obs().Snapshot().Counters[obs.CtrLifetimePretenured])
			return promoted, pretenured, nil
		}
		pOff, _, err := run(heap.LifetimeOff)
		if err != nil {
			return nil, err
		}
		pEnf, pretenured, err := run(heap.LifetimeEnforce)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"promoted_off":     pOff,
			"promoted_enforce": pEnf,
			"pretenured":       pretenured,
		}, nil
	}
}
