package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"time"

	"repro/internal/bench"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile.
const tailBeyond = 10

// tailCap is the highest percentile reported as the tail. With thousands
// of jobs, the value ten samples from the top reflects a handful of host
// stalls (an fsync, a descheduled thread) and does not repeat run to run;
// p99 still has 1% of the jobs beyond it.
const tailCap = 99

// tail returns the highest percentile, up to tailCap, of the sample that
// has at least tailBeyond samples beyond it, and that percentile. With too
// few samples no percentile qualifies; tail then returns the maximum with
// pct 100 and ok false.
func tail(samples []time.Duration) (v time.Duration, pct float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n <= tailBeyond {
		return s[n-1], 100, false
	}
	// k samples at or below the tail: the (tailBeyond+1)-th largest, or
	// the p99 sample when that is lower.
	k := min(n-tailBeyond, int(math.Ceil(tailCap*float64(n)/100)))
	return s[k-1], 100 * float64(k) / float64(n), true
}

// medianDur is the median through the repo's shared statistics helper.
func medianDur(samples []time.Duration) time.Duration {
	ns := make([]int64, len(samples))
	for i, d := range samples {
		ns[i] = int64(d)
	}
	med, _, _, _ := bench.Stats(ns)
	return time.Duration(med)
}

// medianF is the median of float samples (0 for none).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricName is the form every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the form every reported unit must have.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics in insertion order.
type metricSet struct {
	names []string
	vals  map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{vals: make(map[string]metric)} }

// set records a metric, refusing malformed or repeated names, malformed
// units and non-finite values.
func (m *metricSet) set(name, unit string, v float64) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q: want %s", name, metricName)
	}
	if !metricUnit.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q: want %s", name, unit, metricUnit)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s: value %v is not finite", name, v)
	}
	if _, dup := m.vals[name]; dup {
		return fmt.Errorf("metric %s reported twice", name)
	}
	m.names = append(m.names, name)
	m.vals[name] = metric{v, unit}
	return nil
}

// print writes one human-readable line per metric.
func (m *metricSet) print(w io.Writer, prefix string) {
	for _, n := range m.names {
		fmt.Fprintf(w, "%s%-30s %14.4f %s\n", prefix, n, m.vals[n].Value, m.vals[n].Unit)
	}
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints the result line with the named metrics only, in order, and
// fails if one of them was not measured.
func (m *metricSet) emit(w io.Writer, names []string, attempted, failed int) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric)}
	for _, n := range names {
		v, ok := m.vals[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = v
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// tally counts jobs attempted and jobs that failed: an engine error, an
// out-of-memory result, a refusal after retries, or wrong output.
type tally struct {
	attempted, failed int
}

func (t *tally) record(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
