package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/graphchi"
)

// Output references, computed in plain Go from the generated inputs. None
// of them runs through the code under test.

// referencePageRank follows the engine's interval schedule: within one
// iteration an interval reads the values earlier intervals already
// updated (GraphChi's asynchronous semantics), starting from 1.0.
func referencePageRank(sg *graphchi.ShardedGraph, intervals [][2]int, iters int) []float64 {
	values := make([]float64, sg.NumVertices)
	for i := range values {
		values[i] = 1.0
	}
	for it := 0; it < iters; it++ {
		for _, iv := range intervals {
			a, b := iv[0], iv[1]
			next := make([]float64, b-a)
			for v := a; v < b; v++ {
				sum := 0.0
				for e := sg.InStart[v]; e < sg.InStart[v+1]; e++ {
					s := sg.InSrc[e]
					d := sg.OutDeg[s]
					if d == 0 {
						d = 1
					}
					sum += values[s] / float64(d)
				}
				next[v-a] = 0.15 + 0.85*sum
			}
			copy(values[a:b], next)
		}
	}
	return values
}

// pageRankTolerance is the largest per-vertex difference accepted.
const pageRankTolerance = 1e-9

// checkPageRank compares engine output with the reference.
func checkPageRank(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pagerank: %d values, want %d", len(got), len(want))
	}
	for v := range want {
		if d := math.Abs(got[v] - want[v]); !(d <= pageRankTolerance) {
			return fmt.Errorf("pagerank: vertex %d = %v, want %v", v, got[v], want[v])
		}
	}
	return nil
}

// referenceWordCount counts whitespace-separated words (space, newline,
// carriage return, tab) and returns "word count" lines in byte order.
func referenceWordCount(parts [][]byte) []string {
	counts := make(map[string]int)
	for _, p := range parts {
		for _, w := range bytes.FieldsFunc(p, func(r rune) bool {
			return r == ' ' || r == '\n' || r == '\r' || r == '\t'
		}) {
			counts[string(w)]++
		}
	}
	lines := make([]string, 0, len(counts))
	for w, c := range counts {
		lines = append(lines, fmt.Sprintf("%s %d", w, c))
	}
	sort.Strings(lines)
	return lines
}

// checkWordCount compares the concatenated reducer outputs with the
// reference. Each reducer owns a disjoint set of words, so the union of
// their lines, sorted, must equal the reference exactly.
func checkWordCount(outputs [][]byte, want []string) error {
	var got []string
	for _, o := range outputs {
		if len(o) == 0 {
			continue
		}
		got = append(got, strings.Split(strings.TrimSuffix(string(o), "\n"), "\n")...)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		return fmt.Errorf("wordcount: %d distinct words, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("wordcount: line %q, want %q", got[i], want[i])
		}
	}
	return nil
}

// checkOutput compares a daemon job's output with the reference run.
func checkOutput(got, want string) error {
	if got != want {
		return fmt.Errorf("output %q, want %q", got, want)
	}
	return nil
}
