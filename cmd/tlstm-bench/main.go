// Command tlstm-bench regenerates the paper's evaluation figures
// (Middleware'12, Figures 1a, 1b, 2a, 2b) and the headline comparison
// numbers, printing each as an aligned text table.
//
// Usage:
//
//	tlstm-bench                 # all figures at default scale
//	tlstm-bench -fig 2a         # one figure
//	tlstm-bench -quick          # reduced transaction counts
//	tlstm-bench -headline       # §4 headline numbers (from Fig2b data)
//	tlstm-bench -clock deferred # figures under the GV5-style clock
//	tlstm-bench -clocks         # clock-strategy sweep across runtimes
//	tlstm-bench -cm karma       # figures under the Karma contention manager
//	tlstm-bench -cms            # contention-policy sweep across runtimes
//	tlstm-bench -mode adaptive  # figures under the adaptive execution-mode ladder
//	tlstm-bench -modes          # execution-mode sweep (karma conflict storm)
//	tlstm-bench -mv 2           # figures with 2 retained versions per word
//	tlstm-bench -mvs            # multi-version depth sweep (read-mostly mixes)
//	tlstm-bench -mvs -json out.json  # ... also persisted as JSON
//	tlstm-bench -shards 4       # figures with a 4-shard lock table
//	tlstm-bench -shards 4 -affinity  # ... plus conflict-sketch thread placement
//	tlstm-bench -shardss        # shard-count sweep (hot-word and 90/10 mixes)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/harness"
	"tlstm/internal/mode"
	"tlstm/internal/txtrace"
)

func main() {
	os.Exit(run())
}

func run() int {
	fig := flag.String("fig", "all", `figure to regenerate: "1a", "1b", "2a", "2b" or "all"`)
	quick := flag.Bool("quick", false, "use reduced transaction counts")
	headline := flag.Bool("headline", false, "print the paper's §4 headline ratios (computed from Figure 2b)")
	check := flag.Bool("check", false, "regenerate all figures and verify the paper's qualitative claims; exit non-zero on violation")
	clockName := flag.String("clock", "gv4", `commit-clock strategy for figure/headline runs: "gv4", "deferred", "sharded" or "gv7"`)
	clockCmp := flag.Bool("clocks", false, "sweep all commit-clock strategies across all four runtimes on a write-heavy workload (throughput, abort rate, snapshot extensions and clock CAS retries per strategy)")
	cmName := flag.String("cm", "default", `contention-management policy for figure/headline runs: "suicide", "backoff", "greedy", "karma", "taskaware" or "default" (each runtime's own)`)
	cmCmp := flag.Bool("cms", false, "sweep all contention-management policies across all four runtimes on a write-contended workload (throughput, abort rate and policy decision counters per policy)")
	modeName := flag.String("mode", "spec", `execution-mode policy for figure/headline runs: "spec" (always speculative), "adaptive" (ladder with serialized fallback) or "serial"`)
	modeCmp := flag.Bool("modes", false, "sweep all execution-mode policies across all four runtimes on the karma conflict storm (throughput, abort rate and ladder fallback/recovery counters per policy)")
	mvDepth := flag.Int("mv", 0, "retained version depth for figure/headline runs (0 disables multi-versioning)")
	mvCmp := flag.Bool("mvs", false, "sweep retained version depths K=0..3 across all four runtimes on read-mostly workloads at 90/10 and 99/1 mixes (throughput, aborts, wait-free reads and fallback misses per depth)")
	shards := flag.Int("shards", 0, "lock-table shard count for figure/headline runs (a power of two; 0 or 1 keeps the flat table)")
	affinity := flag.Bool("affinity", false, "replace static round-robin thread placement with the conflict-sketch affinity policy (only meaningful with -shards > 1)")
	shardCmp := flag.Bool("shardss", false, "sweep lock-table shard counts N=1,2,4,8 (plus an affinity leg at each N>1) across all four runtimes on hot-word and 90/10 mixes (throughput, aborts, cross-shard conflicts and remaps per geometry)")
	jsonPath := flag.String("json", "", "with -mvs or -shardss: also write the sweep results as JSON to this file")
	format := flag.String("format", "table", `output format: "table" or "csv"`)
	traceFile := flag.String("trace", "", "arm the flight recorder in every runtime the figures build and write the binary trace dump (TXTRACE1) here on exit; inspect with tlstm-trace")
	flag.Parse()

	// Fail fast on malformed flags instead of clamping or misbehaving
	// several minutes into a figure run.
	if *mvDepth < 0 {
		fmt.Fprintf(os.Stderr, "tlstm-bench: -mv %d: retained version depth cannot be negative\n", *mvDepth)
		return 2
	}
	if *shards < 0 || (*shards > 1 && *shards&(*shards-1) != 0) {
		fmt.Fprintf(os.Stderr, "tlstm-bench: -shards %d: shard count must be a power of two\n", *shards)
		return 2
	}
	if *affinity && *shards <= 1 {
		fmt.Fprintf(os.Stderr, "tlstm-bench: -affinity requires -shards > 1 (a flat lock table has nowhere to place threads)\n")
		return 2
	}

	sc := harness.DefaultScale()
	if *quick {
		sc = harness.QuickScale()
	}
	if *traceFile != "" {
		sc.Trace = txtrace.NewRecorder(0)
		defer func() {
			// Figure runs join every worker/thread before returning, so
			// all ring owners are quiesced by the time we get here.
			f, err := os.Create(*traceFile)
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
				len(sc.Trace.Rings()), sc.Trace.Events(), sc.Trace.Drops(), *traceFile)
		}()
	}
	kind, err := clock.Parse(*clockName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-bench: %v\n", err)
		return 2
	}
	sc.Clock = kind
	cmKind, err := cm.Parse(*cmName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-bench: %v\n", err)
		return 2
	}
	sc.CM = cmKind
	modePol, err := mode.Parse(*modeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-bench: %v\n", err)
		return 2
	}
	sc.Mode = mode.Config{Policy: modePol}
	sc.MV = *mvDepth
	sc.Shards = *shards
	sc.Affinity = *affinity

	if *shardCmp {
		threads, txs := 4, 5_000
		if *quick {
			txs = 500
		}
		fmt.Printf("## Lock-table shard sweep (hot-word and 90/10 mixes, %d threads, %d tx/thread)\n", threads, txs)
		results := harness.CompareShards(threads, txs)
		for _, r := range results {
			fmt.Println(r)
		}
		if *jsonPath != "" {
			if err := writeJSON(*jsonPath, "shards", threads, txs, results); err != nil {
				fmt.Fprintf(os.Stderr, "tlstm-bench: %v\n", err)
				return 1
			}
		}
		return 0
	}
	if *mvCmp {
		threads, txs := 4, 10_000
		if *quick {
			txs = 1_000
		}
		fmt.Printf("## Multi-version depth sweep (read-mostly, %d threads, %d tx/thread)\n", threads, txs)
		results := harness.CompareMV(threads, txs)
		for _, r := range results {
			fmt.Println(r)
		}
		if *jsonPath != "" {
			if err := writeJSON(*jsonPath, "mv", threads, txs, results); err != nil {
				fmt.Fprintf(os.Stderr, "tlstm-bench: %v\n", err)
				return 1
			}
		}
		return 0
	}
	if *clockCmp {
		txs := 50_000
		if *quick {
			txs = 5_000
		}
		fmt.Println("## Commit-clock strategy comparison (write-heavy, 4 threads, all runtimes)")
		for _, r := range harness.CompareClocks(4, txs) {
			fmt.Println(r)
		}
		return 0
	}
	if *cmCmp {
		txs := 20_000
		if *quick {
			txs = 2_000
		}
		fmt.Println("## Contention-management policy comparison (write-contended, 4 threads, all runtimes)")
		for _, r := range harness.CompareCM(4, txs) {
			fmt.Println(r)
		}
		return 0
	}
	if *modeCmp {
		txs := 20_000
		if *quick {
			txs = 2_000
		}
		fmt.Println("## Execution-mode policy comparison (karma conflict storm, 4 threads, all runtimes)")
		for _, r := range harness.CompareModes(4, txs) {
			fmt.Println(r)
		}
		return 0
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
	ran := 0
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
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "tlstm-bench: unknown figure %q\n", *fig)
		return 2
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
