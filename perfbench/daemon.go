package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/facade"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/vm"
)

// The daemon workload: facade.job/v1 traffic in a closed loop against a
// `repro serve` process with its default journal.
const (
	dmClients      = 2 // closed-loop clients, one tenant each
	dmSeedsPerScen = 4 // Sys.rand seeds per scenario; outputs are references
	dmColdEvery    = 4 // one job in dmColdEvery gets a new program digest
	dmSubmitRetry  = 8 // resubmits after a 429/503 before the job counts as refused
	dmReplays      = 12
	dmStartTimeout = 30 * time.Second
	dmStopTimeout  = 15 * time.Second
)

type daemon struct {
	e     *env
	cmd   *exec.Cmd
	done  chan error // cmd.Wait's result
	c     *server.Client
	scens []load.Scenario
	seeds []int64
	refs  map[string]string // "scenario/seed" -> output of P run one-shot

	rejections atomic.Int64

	mu   sync.Mutex
	reqs map[int]dmJob // traced jobs by ID, for the replays

	base server.ServerStatus // daemon counters when set-up ended
}

type dmJob struct {
	req  server.SubmitRequest
	cold bool // carries a program digest the daemon has not seen
}

func setupDaemon(e *env, tr *tracer, rep int) (runner, error) {
	dir := filepath.Join(e.tmp, fmt.Sprintf("daemon-%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{e: e, scens: load.Scenarios(), refs: make(map[string]string), reqs: make(map[int]dmJob)}
	for i := 0; i < dmSeedsPerScen; i++ {
		d.seeds = append(d.seeds, e.seed*dmSeedsPerScen+int64(i))
	}
	if err := d.start(dir); err != nil {
		d.close()
		return nil, err
	}
	// References: the untransformed program, run one-shot in this process.
	for _, sc := range d.scens {
		for _, seed := range d.seeds {
			seed := seed
			out, _, err := server.OneShot(server.SubmitRequest{Sources: sc.Sources, HeapSize: sc.HeapSize, RandSeed: &seed})
			if err != nil {
				d.close()
				return nil, fmt.Errorf("reference %s/%d: %w", sc.Name, seed, err)
			}
			d.refs[refKey(sc.Name, seed)] = out
		}
	}
	// Warm-up: every scenario and seed once per client, so the program
	// cache and the warm pool hold what the warm jobs will use.
	var wg sync.WaitGroup
	errs := make([]error, dmClients)
	for c := 0; c < dmClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := 0
			for _, sc := range d.scens {
				for _, seed := range d.seeds {
					if s := d.job(nil, -1-(c+dmClients*k), c, sc, seed, false); !s.ok && errs[c] == nil {
						errs[c] = fmt.Errorf("warm-up job %s/%d failed", sc.Name, seed)
					}
					k++
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		d.close()
		return nil, err
	}
	var err error
	if d.base, err = d.c.Status(); err != nil {
		d.close()
		return nil, fmt.Errorf("daemon status: %w", err)
	}
	d.rejections.Store(0)
	return d, nil
}

func refKey(scen string, seed int64) string { return scen + "/" + strconv.FormatInt(seed, 10) }

// start launches `repro serve` on a port file in dir (so its journal,
// spill files and log live there too) and waits until it is ready.
func (d *daemon) start(dir string) error {
	pf := filepath.Join(dir, "port.json")
	d.cmd = exec.Command(d.e.repro, "serve", "-portfile", pf, "-idle", "2m")
	d.cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	// The daemon dies with the benchmark, even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(filepath.Join(dir, "serve.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		return fmt.Errorf("start daemon: %w", err)
	}
	d.done = make(chan error, 1)
	go func() { d.done <- d.cmd.Wait() }()
	deadline := time.Now().Add(dmStartTimeout)
	for {
		if c, err := server.Discover(pf); err == nil {
			if rs, err := c.Ready(); err == nil && rs.Ready {
				d.c = c
				return nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("daemon exited during start: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after %v", dmStartTimeout)
		}
	}
}

// close stops the daemon and waits for the process to end.
func (d *daemon) close() error {
	if d.cmd == nil || d.done == nil {
		return nil
	}
	if d.c != nil {
		_ = d.c.Shutdown() // the wait below notices a daemon that ignored it
	}
	select {
	case <-d.done:
		return nil
	case <-time.After(dmStopTimeout):
	}
	_ = d.cmd.Process.Kill()
	<-d.done
	return fmt.Errorf("daemon did not stop within %v; killed", dmStopTimeout)
}

// cpu is the daemon process's user+sys CPU time, from /proc/<pid>/stat.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTick = 10 * time.Millisecond // USER_HZ = 100 on Linux
	return time.Duration(utime+stime) * clockTick, nil
}

func (d *daemon) run(tr *tracer, until time.Time, firstID int) []sample {
	out := make([][]sample, dmClients)
	var wg sync.WaitGroup
	for c := 0; c < dmClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.e.seed*1_000_003 + int64(firstID)*31 + int64(c)))
			for k := 0; time.Now().Before(until); k++ {
				sc := d.scens[rng.Intn(len(d.scens))]
				seed := d.seeds[rng.Intn(len(d.seeds))]
				cold := rng.Intn(dmColdEvery) == 0
				out[c] = append(out[c], d.job(tr, firstID+c+dmClients*k, c, sc, seed, cold))
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// job submits one job and long-polls it to a terminal state, as
// `repro submit` does. A cold job appends an unused class named after the
// seed and job: the output is unchanged, the program digest is new.
func (d *daemon) job(tr *tracer, id, client int, sc load.Scenario, seed int64, cold bool) sample {
	sources := make(map[string]string, len(sc.Sources))
	for n, src := range sc.Sources {
		if cold {
			src += fmt.Sprintf("\nclass ColdS%dJ%d { int unused; }\n", uint64(d.e.seed), uint64(id))
		}
		sources[n] = src
	}
	req := server.SubmitRequest{
		Tenant:    fmt.Sprintf("tenant-%d", client),
		Sources:   sources,
		Transform: sc.Transform,
		HeapSize:  sc.HeapSize,
		RandSeed:  &seed,
	}
	opts := server.SubmitOptions{
		MaxRetries: dmSubmitRetry,
		Seed:       int64(id),
		OnReject:   func(*server.RejectedError) { d.rejections.Add(1) },
	}
	s := sample{key: refKey(sc.Name, seed), layer: make(map[string]float64)}
	var (
		resp server.SubmitResponse
		st   server.JobStatus
	)
	start := time.Now()
	end, root := tr.begin("job", 0, id)
	err := tr.do("Client.SubmitWithRetry", root, id, func() (err error) { resp, err = d.c.SubmitWithRetry(req, opts); return })
	submitted := time.Since(start)
	if err == nil {
		err = tr.do("Client.Wait", root, id, func() (err error) { st, err = d.c.Wait(resp.JobID); return })
	}
	s.latency = time.Since(start)
	end()
	if err == nil {
		err = st.Err()
	}
	if err == nil {
		err = checkOutput(st.Output, d.refs[s.key])
	}
	if err != nil {
		d.e.logf("job %d (%s): %v", id, s.key, err)
		return s
	}
	s.ok = true
	if tr != nil {
		d.mu.Lock()
		d.reqs[id] = dmJob{req: req, cold: cold}
		d.mu.Unlock()
	}
	queued, running := time.Duration(st.QueuedNanos), time.Duration(st.RunningNanos)
	s.layer["server.submit_ms"] = ms(submitted)
	s.layer["server.queue_ms"] = ms(queued)
	s.layer["server.run_ms"] = ms(running)
	s.layer["server.overhead_ms"] = ms(s.latency - submitted - queued - running)
	if st.WarmHit {
		s.layer["server.warm"] = 1
	}
	if rs := st.Stats; rs != nil {
		s.peakMem = rs.Heap.PeakUsed + rs.Offheap.PeakBytes
		addObs(s.layer, viewOfRunStats(rs))
		s.layer["heap.minor_gcs"] = float64(rs.Heap.MinorGCs)
		s.layer["heap.full_gcs"] = float64(rs.Heap.FullGCs)
		s.layer["heap.peak_mb"] = float64(rs.Heap.PeakUsed) / mib
		s.layer["offheap.peak_mb"] = float64(rs.Offheap.PeakBytes) / mib
	}
	return s
}

func (d *daemon) layers(tr *tracer, traced []sample, m map[string]float64, _ *int) error {
	perJobLayers(m, traced, "server.run_ms")
	for _, n := range []string{"server.submit_ms", "server.queue_ms", "server.run_ms", "server.overhead_ms"} {
		m[n] = layerMedian(traced, n)
	}
	var warm, cold []sample
	for _, s := range traced {
		if s.layer["server.warm"] == 1 {
			warm = append(warm, s)
		} else {
			cold = append(cold, s)
		}
	}
	m["server.run_warm_ms"] = layerMedian(warm, "server.run_ms")
	m["server.run_cold_ms"] = layerMedian(cold, "server.run_ms")
	if len(traced) > 0 {
		m["server.warm_hit_rate"] = float64(len(warm)) / float64(len(traced))
	}
	// Daemon-wide counts over the whole measured run.
	st, err := d.c.Status()
	if err != nil {
		return fmt.Errorf("daemon status: %w", err)
	}
	m["server.rejections"] = float64(d.rejections.Load())
	m["server.retries"] = float64(st.JobsRetried - d.base.JobsRetried)
	m["server.pool_rebuilds"] = float64(st.PoolRebuilds - d.base.PoolRebuilds)
	return d.replay(tr, m)
}

// replay times, in this process, the layer calls the daemon makes for the
// traced jobs, which it runs in another process: the compile path and VM
// build of cold jobs, and the reset with which the daemon verifies a used
// VM before pooling it (done for every job; sampled on warm-program jobs).
func (d *daemon) replay(tr *tracer, m map[string]float64) error {
	d.mu.Lock()
	ids := make([]int, 0, len(d.reqs))
	for id := range d.reqs {
		ids = append(ids, id)
	}
	d.mu.Unlock()
	sort.Ints(ids)
	var lowered, transformed []float64
	nCold, nReset := 0, 0
	for _, id := range ids {
		j := d.reqs[id]
		switch {
		case j.cold && nCold < dmReplays:
			nCold++
			lp, p, err := compile(tr, id, j.req.Sources, dataClasses(j.req))
			if err != nil {
				return err
			}
			lowered = append(lowered, float64(lp.NumInstrs()))
			if p.Transformed {
				transformed = append(transformed, float64(p.NumInstrs()))
			}
			if err := tr.do("vm.New", 0, id, func() error { _, err := vm.New(p, vm.Config{HeapSize: j.req.HeapSize}); return err }); err != nil {
				return err
			}
		case !j.cold && nReset < dmReplays:
			nReset++
			if err := d.replayReset(tr, id, j.req); err != nil {
				return err
			}
		}
	}
	compileLayers(m, tr, nil, nil)
	m["lower.ir_instrs"] = medianF(lowered)
	m["core.ir_instrs"] = medianF(transformed)
	m["vm.build_ms"] = ms(medianDur(tr.durations("vm.New")))
	m["vm.reset_ms"] = ms(medianDur(tr.durations("vm.ResetForReuse")))
	return nil
}

// replayReset runs the job once on a fresh VM, then times the reset that
// returns the used VM to its post-build state.
func (d *daemon) replayReset(tr *tracer, id int, req server.SubmitRequest) error {
	_, p, err := compile(nil, id, req.Sources, dataClasses(req))
	if err != nil {
		return err
	}
	res, err := facade.Run(p, facade.WithHeapSize(req.HeapSize), facade.WithRandSeed(*req.RandSeed))
	if err != nil {
		return err
	}
	res.Close()
	return tr.do("vm.ResetForReuse", 0, id, func() error { return res.VM.ResetForReuse(vm.ResetConfig{}) })
}

// dataClasses is what the daemon transforms a request with: its
// "// facadec: data=..." directives, or nothing for an untransformed job.
func dataClasses(req server.SubmitRequest) []string {
	if !req.Transform {
		return nil
	}
	var data []string
	for _, src := range req.Sources {
		data = append(data, facade.DataClassesDirective(src)...)
	}
	return data
}
