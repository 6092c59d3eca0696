package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

// Schema versions the benchmark result format. Consumers must reject
// files whose schema they do not understand.
const Schema = "facade.bench/v1"

// CalibrationCase is the pure-Go spin workload whose median is used to
// normalize wall times across machines: the regression gate divides every
// case's current/baseline ratio by the calibration ratio, so a uniformly
// slower CI runner does not read as a regression.
const CalibrationCase = "calibrate/spin"

// File is the on-disk container: one harness invocation.
type File struct {
	Schema string   `json:"schema"`
	Rev    string   `json:"rev,omitempty"`
	Cases  []Result `json:"cases"`
}

// Result is one case's statistics across the measured repetitions.
type Result struct {
	Name     string             `json:"name"`
	Reps     int                `json:"reps"`
	Warmup   int                `json:"warmup"`
	MedianNS int64              `json:"median_ns"`
	MADNS    int64              `json:"mad_ns"`
	MinNS    int64              `json:"min_ns"`
	MaxNS    int64              `json:"max_ns"`
	RepsNS   []int64            `json:"reps_ns"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// Encode writes the file deterministically (sorted keys, %.6g floats via
// the shared obs encoder), so identical results are byte-identical.
func (f *File) Encode(w io.Writer) error {
	return obs.EncodeDeterministic(w, f)
}

// WriteFile writes the result file to path.
func (f *File) WriteFile(path string) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	defer w.Close()
	return f.Encode(w)
}

// Decode reads a result file, rejecting unknown schemas.
func Decode(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, err
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("bench: unsupported schema %q (want %q)", f.Schema, Schema)
	}
	return &f, nil
}

// ReadFile reads a result file from path.
func ReadFile(path string) (*File, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return Decode(r)
}

// Delta is one case's baseline-vs-current comparison.
type Delta struct {
	Name      string
	BaseNS    int64
	CurNS     int64
	Ratio     float64 // CurNS / BaseNS
	NormRatio float64 // Ratio divided by the calibration ratio
	Regressed bool
}

// Compare matches cases by name and flags regressions: a case regresses
// when its normalized ratio exceeds 1+tolerance. When both files carry
// the calibration case, ratios are normalized by it (and the calibration
// case itself is never flagged); otherwise NormRatio == Ratio. It returns
// the matched deltas, the number regressed, and the names of current
// cases the baseline has no (positive) median for: an ungated case is a
// gate failure, not a pass.
func Compare(base, cur *File, tolerance float64) (deltas []Delta, regressed int, missing []string) {
	baseBy := make(map[string]Result, len(base.Cases))
	for _, r := range base.Cases {
		baseBy[r.Name] = r
	}
	norm := 1.0
	if bc, ok := baseBy[CalibrationCase]; ok && bc.MedianNS > 0 {
		for _, r := range cur.Cases {
			if r.Name == CalibrationCase && r.MedianNS > 0 {
				norm = float64(r.MedianNS) / float64(bc.MedianNS)
			}
		}
	}
	for _, r := range cur.Cases {
		b, ok := baseBy[r.Name]
		if !ok || b.MedianNS <= 0 {
			missing = append(missing, r.Name)
			continue
		}
		d := Delta{
			Name:   r.Name,
			BaseNS: b.MedianNS,
			CurNS:  r.MedianNS,
			Ratio:  float64(r.MedianNS) / float64(b.MedianNS),
		}
		d.NormRatio = d.Ratio / norm
		if r.Name != CalibrationCase && d.NormRatio > 1+tolerance {
			d.Regressed = true
			regressed++
		}
		deltas = append(deltas, d)
	}
	return deltas, regressed, missing
}
