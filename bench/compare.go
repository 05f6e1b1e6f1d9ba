package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

func readSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// medianNoise is how far a run's median may sit from where another run
// of the same commit would put it, judged from the run's own slices: two
// standard errors of a median, which for n slices is about their
// interquartile distance over √n. (The slices of one run spread 5–20 %,
// the medians of ten runs 2–5 %: it is the second a bound is about.)
func medianNoise(slices []float64) float64 {
	if len(slices) == 0 {
		return 0
	}
	return 2 * spread(slices) / math.Sqrt(float64(len(slices)))
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]*runSet
	for i, path := range []string{pathA, pathB} {
		s, err := readSet(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench: -compare: %v\n", err)
			return 2
		}
		sets[i] = s
	}
	return compareSets(sets[0], sets[1], stdout)
}

func findRun(s *runSet, workload string, trace bool) *outcome {
	i := slices.IndexFunc(s.Runs, func(r *outcome) bool { return r.Workload == workload && r.Trace == trace })
	if i < 0 {
		return nil
	}
	return s.Runs[i]
}

// compareSets prints, for every run of either set, each end-to-end
// metric's worsening from a to b against its bound, each exact count's
// equality and each broken limit. A row is unresolved when the noise of
// the difference of the two medians (the two files' medianNoise, summed
// in quadrature) exceeds the bound: the files cannot tell a change of
// that size from noise. A breach is a worsening beyond the bound, failed
// operations, a run or an exact count only one set has, a differing
// exact count, or a broken limit. It returns 1 on a breach.
func compareSets(a, b *runSet, w io.Writer) int {
	breaches, unresolved, rows := 0, 0, 0
	breach := func(workload, what, format string, args ...any) {
		fmt.Fprintf(w, "%-12s %-30s BREACH: %s\n", workload, what, fmt.Sprintf(format, args...))
		breaches++
	}
	for _, rb := range b.Runs {
		if findRun(a, rb.Workload, rb.Trace) == nil {
			breach(rb.Workload, "run", "trace=%v is only in b", rb.Trace)
		}
	}
	for _, ra := range a.Runs {
		rb := findRun(b, ra.Workload, ra.Trace)
		if rb == nil {
			breach(ra.Workload, "run", "trace=%v is only in a", ra.Trace)
			continue
		}
		if ra.Failed+rb.Failed > 0 {
			breach(ra.Workload, "failed", "failed operations (a %d, b %d)", ra.Failed, rb.Failed)
		}
		for i, r := range []*outcome{ra, rb} {
			for _, l := range brokenLimits(r) {
				breach(r.Workload, "limit", "%s in %c", l, 'a'+i)
			}
		}
		if !ra.Trace {
			for _, spec := range endToEnd {
				va, vb := ra.Metrics[spec.Name].Value, rb.Metrics[spec.Name].Value
				worse := (vb - va) / va
				if spec.Better == "higher" {
					worse = -worse
				}
				noise := math.Hypot(medianNoise(ra.Slices[spec.Name]), medianNoise(rb.Slices[spec.Name]))
				if spec.Name == "setup_s" {
					// As in the driver's own rule, setup_s is judged on
					// its medians alone: five set-ups of a tenth of a
					// second each say little about their own noise.
					noise = 0
				}
				verdict := "ok"
				switch {
				case !(va > 0 && vb > 0):
					// An end-to-end metric is never 0; a missing one reads 0.
					verdict = "BREACH: no value"
					breaches++
				case noise > spec.Bound:
					verdict = "unresolved"
					unresolved++
				case worse > spec.Bound:
					verdict = "BREACH"
					breaches++
				}
				rows++
				fmt.Fprintf(w, "%-12s %-30s a %14.4f  b %14.4f %-6s worse %+6.1f%%  bound %4.1f%%  noise %4.1f%%  %s\n",
					ra.Workload, spec.Name, va, vb, spec.Unit, 100*worse, 100*spec.Bound, 100*noise, verdict)
			}
			continue
		}
		// Traced runs: a count either run vouches for as exact must be
		// vouched for by both and equal.
		exact := slices.Clone(ra.Exact)
		for _, name := range rb.Exact {
			if !slices.Contains(exact, name) {
				exact = append(exact, name)
			}
		}
		for _, name := range exact {
			va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value
			verdict := "equal"
			switch {
			case !slices.Contains(ra.Exact, name) || !slices.Contains(rb.Exact, name):
				verdict = "BREACH: exact in one set only"
				breaches++
			case va != vb:
				verdict = "BREACH: exact count differs"
				breaches++
			}
			rows++
			fmt.Fprintf(w, "%-12s %-30s a %14.4f  b %14.4f  %s\n", ra.Workload, name, va, vb, verdict)
		}
	}
	fmt.Fprintf(w, "%d rows, %d breaches, %d unresolved\n", rows, breaches, unresolved)
	if breaches > 0 || rows == 0 {
		return 1
	}
	return 0
}
