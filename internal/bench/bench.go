// Package bench is the repo's performance-measurement subsystem: a small
// registry of end-to-end workloads (interpreter, heap, off-heap store,
// framework runs), a repetition harness with warmup and robust statistics
// (median + median absolute deviation, not mean ± stddev, so one noisy
// rep cannot move the headline number), and a stable JSON result format
// (facade.bench/v1) that CI diffs against a committed baseline.
//
// It is the repo's one benchmark registry: `repro bench` runs it, and the
// paper's tables and figures are printed by the other repro subcommands
// (table2, fig4a, table3, fig4bc, gps, objcount, speed).
package bench

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"time"
)

// Case is one registered workload. Run executes a single measured
// repetition and may return auxiliary metrics (throughput, counts) that
// are carried into the result file; wall time is measured by the harness.
type Case struct {
	Name  string
	Short bool // included in -short smoke runs (CI)
	Run   func() (map[string]float64, error)
}

var registry []Case

// Register adds a case; names must be unique.
func Register(c Case) {
	for _, e := range registry {
		if e.Name == c.Name {
			panic("bench: duplicate case " + c.Name)
		}
	}
	registry = append(registry, c)
}

// Cases returns the registered cases sorted by name.
func Cases() []Case {
	out := make([]Case, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Options configures a harness run.
type Options struct {
	Reps   int // measured repetitions per case (default 5)
	Warmup int // discarded repetitions per case (negative = 0)
	Short  bool
	Filter *regexp.Regexp
	Rev    string
	// Progress receives one line per completed case when non-nil.
	Progress io.Writer
	// Slowdown artificially inflates every measured time by this factor
	// (e.g. 1.1 = +10%). It exists so the regression gate can be
	// demonstrated to fail: `repro bench -slowdown 1.15 -baseline ...`
	// must exit non-zero. The calibration case is exempt — the flag
	// simulates a code regression, not a slower machine, so it must not
	// be cancelled by cross-machine normalization. 0 or 1 = no inflation.
	Slowdown float64
}

// Run executes the selected cases and returns the result file.
func Run(opts Options) (*File, error) {
	reps := opts.Reps
	if reps <= 0 {
		reps = 5
	}
	warmup := max(opts.Warmup, 0)
	f := &File{Schema: Schema, Rev: opts.Rev}
	for _, c := range Cases() {
		if opts.Short && !c.Short {
			continue
		}
		if opts.Filter != nil && !opts.Filter.MatchString(c.Name) {
			continue
		}
		slowdown := opts.Slowdown
		if c.Name == CalibrationCase {
			slowdown = 0
		}
		res, err := runCase(c, reps, warmup, slowdown)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", c.Name, err)
		}
		f.Cases = append(f.Cases, res)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%-28s median %12s  mad %10s  (%d reps)\n",
				c.Name, time.Duration(res.MedianNS), time.Duration(res.MADNS), reps)
		}
	}
	if len(f.Cases) == 0 {
		return nil, fmt.Errorf("bench: no cases selected")
	}
	return f, nil
}

func runCase(c Case, reps, warmup int, slowdown float64) (Result, error) {
	for i := 0; i < warmup; i++ {
		if _, err := c.Run(); err != nil {
			return Result{}, err
		}
	}
	times := make([]int64, 0, reps)
	var metrics map[string]float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		m, err := c.Run()
		ns := time.Since(start).Nanoseconds()
		if err != nil {
			return Result{}, err
		}
		if slowdown > 0 && slowdown != 1 {
			ns = int64(float64(ns) * slowdown)
		}
		times = append(times, ns)
		metrics = m
	}
	med, mad, min, max := Stats(times)
	return Result{
		Name:     c.Name,
		Reps:     reps,
		Warmup:   warmup,
		MedianNS: med,
		MADNS:    mad,
		MinNS:    min,
		MaxNS:    max,
		RepsNS:   times,
		Metrics:  metrics,
	}, nil
}

// Stats returns the median, median absolute deviation, min, and max of
// the sample. The input is not modified.
func Stats(samples []int64) (median, mad, min, max int64) {
	if len(samples) == 0 {
		return 0, 0, 0, 0
	}
	s := make([]int64, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	median = medianOfSorted(s)
	min, max = s[0], s[len(s)-1]
	dev := make([]int64, len(s))
	for i, v := range s {
		d := v - median
		if d < 0 {
			d = -d
		}
		dev[i] = d
	}
	sort.Slice(dev, func(i, j int) bool { return dev[i] < dev[j] })
	mad = medianOfSorted(dev)
	return median, mad, min, max
}

func medianOfSorted(s []int64) int64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
