// Command bench is the repository's one benchmark: four named workloads
// on the four runtimes (TLSTM, SwissTM, TL2, write-through STM) at
// default configuration, wall-clock, with the layers priced from
// outside. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	bench -workload all -out set.json
//	bench -compare a.json b.json
//
// The last line of standard output of a run is the result as one JSON
// object; the readable table goes to standard error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// envInfo is where the numbers were taken.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func environment() envInfo {
	env := envInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// spanDir is where a traced run writes trace-<workload>.json, relative
// to the checkout root run.sh runs the program from.
const spanDir = "bench/out"

// runSet is what -out writes and -compare reads: every run of one
// invocation.
type runSet struct {
	Env  envInfo    `json:"env"`
	Runs []*outcome `json:"runs"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name ("+strings.Join(workloadNames(), ", ")+") or all")
	seed := fs.Uint64("seed", 1, "input seed; claims must also hold on the held-out seed 2")
	seconds := fs.Float64("seconds", 20, "measured seconds per run on the reference machine (fixes the slice size)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: the traced run and the per-layer metrics")
	scale := fs.Float64("scale", 1, "multiplies the slice size (smoke: 0.01)")
	outFile := fs.String("out", "", "also write the runs, with per-slice values, to this file")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments")
		fs.Usage()
		return 2
	}

	env := environment()
	fmt.Fprintf(stderr, "bench: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.CPU, env.Commit)
	set := runSet{Env: env}
	var todo []options
	base := options{seed: *seed, seconds: *seconds, scale: *scale, outDir: spanDir, report: stderr}
	if *workload == "all" {
		for _, name := range workloadNames() {
			for _, tr := range []bool{false, true} {
				o := base
				o.workload, o.trace = name, tr
				todo = append(todo, o)
			}
		}
	} else {
		base.workload, base.trace = *workload, *trace == 1
		todo = append(todo, base)
	}

	return execute(todo, set, *outFile, stdout, stderr)
}

// execute runs the given runs one after the other in this process,
// prints each result line, and writes the set file when asked. It
// returns the exit code: 1 when any run has failed operations.
func execute(todo []options, set runSet, outFile string, stdout, stderr io.Writer) int {
	code := 0
	for _, opt := range todo {
		stop := watchdog(opt, stderr)
		out, err := runWorkload(opt)
		stop()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		set.Runs = append(set.Runs, out)
		line, err := json.Marshal(out.result)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !out.Correct {
			code = 1
		}
	}
	if outFile != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(outFile, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: -out: %v\n", err)
			return 1
		}
	}
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// watchdog ends the process when a run takes three times what it should:
// three livelocks in this repository's history were found by a hang. It
// dumps every goroutine first; no result line is printed, so the run
// counts as failed. The returned function disarms it.
func watchdog(opt options, stderr io.Writer) (stop func()) {
	// Set-up and the traced run's extra engines ride on top of the
	// measured seconds; the driver's own limit is 180 s.
	expected := time.Duration((opt.seconds*opt.scale*1.5 + 15) * float64(time.Second))
	limit := min(3*expected, 170*time.Second)
	t := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "bench: watchdog: %s (trace=%v) still running after %v; goroutines:\n", opt.workload, opt.trace, limit)
		_ = pprof.Lookup("goroutine").WriteTo(stderr, 2)
		os.Exit(1)
	})
	return func() { t.Stop() }
}

// printReport writes every metric by name with its unit, the spread of
// the slices behind it, and the run's notes.
func printReport(w io.Writer, out *outcome) {
	kind := "end-to-end"
	if out.Trace {
		kind = "per-layer (traced run)"
	}
	rigs := setupRepeats
	if out.Trace {
		rigs = 1
	}
	fmt.Fprintf(w, "\n%s  seed=%d  %s  slice=%d tx × %d thread(s), %d slices × %d set-up(s)\n",
		out.Workload, out.Seed, kind, out.SliceTx, out.Threads, measuredSlices, rigs)
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		mark := ""
		if slices.Contains(out.Exact, name) {
			mark = "  exact"
		}
		fmt.Fprintf(w, "  %-36s %16.4f %-6s iqr/median %5.1f%%%s\n", name, m.Value, m.Unit, 100*spread(out.Slices[name]), mark)
	}
	for _, n := range out.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, l := range brokenLimits(out) {
		fmt.Fprintf(w, "  LIMIT: %s\n", l)
	}
	verdict := "ok"
	if !out.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed — %s\n", out.Attempted, out.Failed, verdict)
}
