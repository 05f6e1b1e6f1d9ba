// Command tlstm-bench regenerates the paper's evaluation figures
// (Middleware'12, Figures 1a, 1b, 2a, 2b) and the headline comparison
// numbers, printing each as an aligned text table, and runs the
// one-setting-at-a-time sweeps across all four runtimes.
//
// Usage:
//
//	tlstm-bench                 # all figures at default scale
//	tlstm-bench -fig 2a         # one figure
//	tlstm-bench -quick          # reduced transaction counts
//	tlstm-bench -headline       # §4 headline numbers (from Fig2b data)
//	tlstm-bench -cm karma       # figures under the Karma contention manager
//	tlstm-bench -mode adaptive  # figures under the adaptive execution-mode ladder
//	tlstm-bench -mv 2           # figures with 2 retained versions per word
//	tlstm-bench -sweep cm       # one sweep: cm, mode or mv
//	tlstm-bench -sweep mv -json out.json  # ... also persisted as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tlstm/internal/harness"
	"tlstm/internal/runflags"
)

func main() {
	os.Exit(run())
}

// sweepThreads is the thread count of every -sweep run.
const sweepThreads = 4

func run() int {
	fig := flag.String("fig", "all", `figure to regenerate: "1a", "1b", "2a", "2b" or "all"`)
	quick := flag.Bool("quick", false, "use reduced transaction counts")
	headline := flag.Bool("headline", false, "print the paper's §4 headline ratios (computed from Figure 2b)")
	check := flag.Bool("check", false, "regenerate all figures and verify the paper's qualitative claims; exit non-zero on violation")
	jsonPath := flag.String("json", "", "with -sweep: also write the sweep results as JSON to this file")
	format := flag.String("format", "table", `figure output format: "table" or "csv"`)
	rf := runflags.Register(flag.CommandLine,
		runflags.Rule{Flag: "fig", Scope: runflags.NoSweep, Values: []string{"1a", "1b", "2a", "2b", "all"}},
		runflags.Rule{Flag: "headline", Scope: runflags.NoSweep},
		runflags.Rule{Flag: "check", Scope: runflags.NoSweep},
		runflags.Rule{Flag: "format", Scope: runflags.NoSweep, Values: []string{"table", "csv"}},
		runflags.Rule{Flag: "json", Scope: runflags.SweepOnly})
	flag.Parse()

	// Fail fast on malformed flags instead of clamping or misbehaving
	// several minutes into a figure run.
	set, err := rf.Settings()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-bench: %v\n", err)
		return 2
	}

	if sw, ok := harness.Sweeps[rf.Sweep]; ok {
		txs := sw.Tx
		if *quick {
			txs /= 10
		}
		fmt.Printf("## %s (all runtimes, %d threads, %d tx/thread)\n", sw.Title, sweepThreads, txs)
		results := sw.Run(sweepThreads, txs)
		for _, r := range results {
			fmt.Println(r)
		}
		if *jsonPath != "" {
			if err := writeJSON(*jsonPath, rf.Sweep, sweepThreads, txs, results); err != nil {
				fmt.Fprintf(os.Stderr, "tlstm-bench: %v\n", err)
				return 1
			}
		}
		return 0
	}

	sc := harness.DefaultScale()
	if *quick {
		sc = harness.QuickScale()
	}
	sc.Settings = set
	if rf.Trace != "" {
		defer func() {
			// Figure runs join every worker/thread before returning, so
			// all ring owners are quiesced by the time we get here.
			f, err := os.Create(rf.Trace)
			if err == nil {
				err = sc.Trace.Dump(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "tlstm-bench: -trace: %v\n", err)
				return
			}
			fmt.Printf("trace: %d rings, %d events, %d dropped -> %s\n",
				len(sc.Trace.Rings()), sc.Trace.Events(), sc.Trace.Drops(), rf.Trace)
		}()
	}
	if *headline {
		printHeadline(sc)
		return 0
	}
	if *check {
		return runCheck(sc)
	}

	type job struct {
		name string
		run  func(harness.Scale) harness.Figure
	}
	jobs := []job{
		{"1a", harness.Fig1a},
		{"1b", harness.Fig1b},
		{"2a", harness.Fig2a},
		{"2b", harness.Fig2b},
	}
	for _, j := range jobs {
		if *fig != "all" && *fig != j.name {
			continue
		}
		f := j.run(sc)
		if *format == "csv" {
			fmt.Println(f.CSV())
		} else {
			fmt.Println(f.Format())
		}
	}
	return 0
}

// writeJSON persists a sweep as an indented JSON document (the
// perf-trajectory format committed as BENCH_<pr>.json).
func writeJSON(path, sweep string, threads, txPerThread int, results []harness.Result) error {
	doc := struct {
		Sweep       string           `json:"sweep"`
		Threads     int              `json:"threads"`
		TxPerThread int              `json:"txPerThread"`
		Results     []harness.Result `json:"results"`
	}{sweep, threads, txPerThread, results}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runCheck regenerates every figure and verifies the paper's
// qualitative claims (harness.CheckFig*).
func runCheck(sc harness.Scale) int {
	type job struct {
		name  string
		run   func(harness.Scale) harness.Figure
		check func(harness.Figure) []string
	}
	jobs := []job{
		{"1a", harness.Fig1a, harness.CheckFig1a},
		{"1b", harness.Fig1b, harness.CheckFig1b},
		{"2a", harness.Fig2a, harness.CheckFig2a},
		{"2b", harness.Fig2b, harness.CheckFig2b},
	}
	violations := 0
	for _, j := range jobs {
		f := j.run(sc)
		bad := j.check(f)
		if len(bad) == 0 {
			fmt.Printf("figure %s: all shape claims hold\n", j.name)
			continue
		}
		violations += len(bad)
		for _, msg := range bad {
			fmt.Printf("figure %s: VIOLATION: %s\n", j.name, msg)
		}
	}
	if violations > 0 {
		fmt.Printf("%d violations\n", violations)
		return 1
	}
	fmt.Println("all figures reproduce the paper's shapes")
	return 0
}

// printHeadline derives the §4 claims from the Figure 2b series:
// TLSTM-1-3 vs SwissTM-1 (paper: ≈ +80%) and TLSTM-2-3 vs SwissTM-2
// (paper: ≈ +48%) on the read-dominated workload, plus the
// write-dominated inversion.
func printHeadline(sc harness.Scale) {
	f := harness.Fig2b(sc)
	get := func(name string, wi int) float64 {
		for _, s := range f.Series {
			if s.Name == name {
				return s.Y[wi]
			}
		}
		return 0
	}
	const readIdx, writeIdx = 2, 0 // Fig2bWorkloads order: write, read-write, read
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return (a/b - 1) * 100
	}
	fmt.Println("## §4 headline numbers (paper → measured)")
	fmt.Printf("read-dominated, 1 thread:  TLSTM-1-3 vs SwissTM-1: paper ≈ +80%%, measured %+.1f%%\n",
		ratio(get("TLSTM-1-3", readIdx), get("SwissTM-1", readIdx)))
	fmt.Printf("read-dominated, 2 threads: TLSTM-2-3 vs SwissTM-2: paper ≈ +48%%, measured %+.1f%%\n",
		ratio(get("TLSTM-2-3", readIdx), get("SwissTM-2", readIdx)))
	fmt.Printf("write-dominated, 1 thread: TLSTM-1-3 vs SwissTM-1: paper: negative, measured %+.1f%%\n",
		ratio(get("TLSTM-1-3", writeIdx), get("SwissTM-1", writeIdx)))
	fmt.Printf("9 tasks, 1 thread read:    TLSTM-1-9 vs TLSTM-1-3: paper: positive, measured %+.1f%%\n",
		ratio(get("TLSTM-1-9", readIdx), get("TLSTM-1-3", readIdx)))
	fmt.Printf("9 tasks, 2 threads read:   TLSTM-2-9 vs TLSTM-2-3: paper: negative, measured %+.1f%%\n",
		ratio(get("TLSTM-2-9", readIdx), get("TLSTM-2-3", readIdx)))
}
