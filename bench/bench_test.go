package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON keeps spec.go and BENCHMARK.json one
// vocabulary, inside the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bj.Paths, []string{"bench"}) || !slices.Equal(bj.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bj.Workloads), len(workloadSpecs))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadSpecs[i].Name || w.Why != workloadSpecs[i].Why {
			t.Errorf("workload %d: %+v vs %+v", i, w, workloadSpecs[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go (limit 16)", len(bj.EndToEnd), len(endToEnd))
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (limit 128)", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "lower" && better != "higher") {
			t.Errorf("metric %q unit %q better %q is outside the contract", name, unit, better)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadSpecs {
		check(w.Name, "count", "lower")
	}
	for i, m := range bj.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		check(m.Name, m.Unit, m.Better)
	}
	for i, m := range bj.PerLayer {
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, m, s)
		}
		check(m.Name, m.Unit, m.Better)
	}
	if s, ok := findSpec(endToEnd, "setup_s"); !ok || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s missing or misdeclared")
	}
}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 1, seconds: 20, scale: 0.01, trace: trace, outDir: t.TempDir()}
}

// TestSmoke runs every workload, untraced and traced, at 1/100 scale
// in-process: every run is correct, emits exactly the metrics the spec
// names, and leaves no goroutine behind.
func TestSmoke(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, w := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			out, err := runWorkload(smokeOptions(t, w.Name, trace))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: unit %q, spec says %q", m.Name, got.Unit, m.Unit)
				}
			}
			for name := range out.Metrics {
				if _, ok := findSpec(want, name); !ok {
					t.Errorf("%s trace=%v: metric %s is not in the spec", w.Name, trace, name)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if out.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, out.Metrics[m.Name].Value)
					}
				}
			}
			for _, l := range brokenLimits(out) {
				// A 1/100 slice is a few dozen transactions: the logs'
				// last growth steps are still a visible share of them.
				if !strings.HasPrefix(l, "allocs_per_tx") {
					t.Errorf("%s: %s", w.Name, l)
				}
			}
			if _, err := json.Marshal(out); err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
			}
		}
	}
	// Close joins every TLSTM worker; allow the runtime a moment to
	// retire the exited goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after the last Close, %d before the first run", n, baseline)
	}
}

// TestBrokenBodyFailsTheRun: a body that skips stores on one runtime
// makes every operation count as failed and the command exit non-zero.
func TestBrokenBodyFailsTheRun(t *testing.T) {
	// bank_hot's exact total is checked on every runtime, wtstm included.
	for _, c := range [][2]string{{"smalltx", "core"}, {"smalltx", "wtstm"}, {"bank_hot", "wtstm"}} {
		opt := smokeOptions(t, c[0], false)
		opt.sabotage = c[1]
		var stdout bytes.Buffer
		if code := execute([]options{opt}, runSet{}, "", &stdout, io.Discard); code != 1 {
			t.Errorf("%s, sabotaged %s: exit code %d, want 1", c[0], c[1], code)
		}
		var res result
		if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s, sabotaged %s: correct=%v failed=%d of %d, want every operation failed", c[0], c[1], res.Correct, res.Failed, res.Attempted)
		}
	}
	opt := smokeOptions(t, "bank_hot", true)
	opt.sabotage = "core+spans"
	out, err := runWorkload(opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Metrics["failed_share"].Value != 1 {
		t.Errorf("sabotaged traced bank_hot: correct=%v failed_share=%v", out.Correct, out.Metrics["failed_share"].Value)
	}
}

func TestCompare(t *testing.T) {
	mk := func(tps float64) *runSet {
		o := &outcome{Workload: "smalltx", Threads: 1, Slices: map[string][]float64{}}
		o.Metrics = map[string]metricValue{}
		for _, m := range endToEnd {
			o.set(m.Name, 1, 1, 1, 1, 1)
		}
		o.set("tlstm_tx_per_s", tps, tps*1.01, tps*0.99, tps, tps)
		tr := &outcome{Workload: "smalltx", Trace: true, Threads: 1, Slices: map[string][]float64{}, exactUpTo: byEngine}
		tr.Metrics = map[string]metricValue{}
		tr.set("clock.tick_per_tx", 1)
		tr.set("bench.span_coverage_pct", 99)
		return &runSet{Runs: []*outcome{o, tr}}
	}
	spec, _ := findSpec(endToEnd, "tlstm_tx_per_s")
	var buf bytes.Buffer
	if code := compareSets(mk(1000), mk(1000*(1-spec.Bound/2)), &buf); code != 0 {
		t.Errorf("half the bound breached it:\n%s", buf.String())
	}
	buf.Reset()
	if code := compareSets(mk(1000), mk(1000*(1-2*spec.Bound)), &buf); code != 1 || !strings.Contains(buf.String(), "BREACH") {
		t.Errorf("twice the bound passed it (code %d):\n%s", code, buf.String())
	}
	noisy := mk(1000)
	noisy.Runs[0].Slices["tlstm_tx_per_s"] = []float64{500, 1000, 1500, 700, 1300}
	buf.Reset()
	if code := compareSets(noisy, mk(1000), &buf); code != 0 || !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("a spread over the bound must read unresolved (code %d):\n%s", code, buf.String())
	}
	off := mk(1000)
	off.Runs[1].Exact = nil
	off.Runs[1].set("clock.tick_per_tx", 2)
	buf.Reset()
	if code := compareSets(mk(1000), off, &buf); code != 1 {
		t.Errorf("a differing exact count must breach:\n%s", buf.String())
	}
	oneSided := mk(1000)
	oneSided.Runs[1].Exact = nil
	buf.Reset()
	if code := compareSets(mk(1000), oneSided, &buf); code != 1 || !strings.Contains(buf.String(), "one set only") {
		t.Errorf("a count only one set vouches for must breach (code %d):\n%s", code, buf.String())
	}
	for _, drop := range []int{0, 1} {
		short := mk(1000)
		short.Runs = slices.Delete(short.Runs, drop, drop+1)
		for _, pair := range [][2]*runSet{{mk(1000), short}, {short, mk(1000)}} {
			buf.Reset()
			if code := compareSets(pair[0], pair[1], &buf); code != 1 || !strings.Contains(buf.String(), "is only in") {
				t.Errorf("a run only one set has must breach (code %d):\n%s", code, buf.String())
			}
		}
	}
	buf.Reset()
	if code := compareSets(&runSet{}, &runSet{}, &buf); code != 1 {
		t.Errorf("two empty sets compared equal:\n%s", buf.String())
	}
	leaky := mk(1000)
	leaky.Runs[1].set("allocs_per_tx", 0.5)
	buf.Reset()
	if code := compareSets(mk(1000), leaky, &buf); code != 1 || !strings.Contains(buf.String(), "allocs_per_tx") {
		t.Errorf("allocs_per_tx over its limit must breach (code %d):\n%s", code, buf.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v,
// n=4), the driver's spread.
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if want := [3]float64{1.75, 3.5, 5.25}; got != want {
		t.Errorf("quartiles = %v, python gives %v", got, want)
	}
}

func TestMedianSortedInterpolates(t *testing.T) {
	// 10 samples, 6 of them in the 285 ns bin, 2 below it: the middle rank
	// (5) is 3 of 6 into the bin.
	got := medianSorted([]int64{283, 284, 285, 285, 285, 285, 285, 285, 290, 400})
	if want := 285.0; got != want {
		t.Errorf("medianSorted = %v, want %v", got, want)
	}
	if got := medianSorted([]int64{284, 285, 285, 285, 285, 286, 286, 286}); got != 285.25 {
		t.Errorf("medianSorted = %v, want 285.25", got)
	}
}
