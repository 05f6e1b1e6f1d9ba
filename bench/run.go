package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"tlstm/internal/tm"
	"tlstm/internal/txtrace"
)

// A run is: set-up (build the runtimes, populate, one warm-up slice
// each), then measuredSlices slices per engine, interleaved round-robin
// across the engines so machine drift hits all of them alike. A slice is
// a fixed transaction count — the workload's pinned rate × the seconds
// asked for — identical on every commit. A metric's value is the median
// over the slices.
//
// The untraced run sets up setupRepeats times, keeps every rig and
// measures them all, interleaved: a runtime instance's speed depends on
// where its lock table and data happen to land (SwissTM on bank_hot is
// 2.0 M tx/s on most instances and 1.5 M on some, steadily), and the
// median over several instances does not ride on one draw.
const (
	measuredSlices = 5
	setupRepeats   = 5
	// traceShare is the untraced run's transactions per engine over the
	// traced run's.
	traceShare = 5
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	scale    float64 // multiplies the slice size (smoke tests: 0.01)
	trace    bool
	outDir   string    // span files; "" writes none
	report   io.Writer // the readable table; nil prints none
	// sabotage names a layer whose bodies drop every second Store. The
	// command line cannot set it; the smoke test does.
	sabotage string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads; outcome adds what -compare and a
// reader want beside it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type outcome struct {
	Workload string  `json:"workload"`
	Trace    bool    `json:"trace"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	SliceTx  int     `json:"slice_tx"` // transactions per slice per user-thread
	Threads  int     `json:"threads"`
	result
	// Slices holds the per-slice values behind each median.
	Slices map[string][]float64 `json:"slices"`
	// Exact names the counts that repeat exactly for this seed (see
	// exactness in spec.go); exactUpTo is the strongest kind this run
	// can vouch for.
	Exact     []string `json:"exact,omitempty"`
	Notes     []string `json:"notes,omitempty"`
	exactUpTo exactness
}

// set records a metric of the run's own list: end-to-end for an untraced
// run, per-layer for a traced one.
func (o *outcome) set(name string, vals ...float64) {
	list := endToEnd
	if o.Trace {
		list = perLayer
	}
	spec, ok := findSpec(list, name)
	if !ok {
		panic("bench: metric " + name + " is not in spec.go")
	}
	o.Metrics[name] = metricValue{median(vals), spec.Unit}
	o.Slices[name] = vals
	if spec.Exact != 0 && spec.Exact <= o.exactUpTo {
		o.Exact = append(o.Exact, name)
	}
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// engineSpec names one engine instance of a rig.
type engineSpec struct {
	kind  int
	label string
	opts  engineOpts
}

func defaultEngines() []engineSpec {
	out := make([]engineSpec, numEngines)
	for k := range out {
		out[k] = engineSpec{kind: k, label: layerNames[k]}
	}
	return out
}

// rig is one set-up: inputs, engines and the latency sample buffers.
type rig struct {
	wl      workload
	sh      shape
	threads int
	n       int // transactions per slice per user-thread
	warm    int
	engines []*engine
	lat     [][]int64 // per user-thread, reused by every slice
	ran     int       // operations attempted so far
	failed  int       // operations failed so far
}

func (r *rig) total() int { return r.warm + measuredSlices*r.n }

func (r *rig) closeAll() {
	for _, e := range r.engines {
		e.close()
	}
}

// sizes fixes the slice size from the workload's pinned rate: the
// untraced run splits its transactions over setupRepeats rigs, the
// traced run has one rig and a traceShare-th of the transactions.
func sizes(sh shape, opt options) (n, warm int) {
	n = int(sh.txPerSec * opt.seconds * opt.scale / measuredSlices)
	if opt.trace {
		n /= traceShare
	} else {
		n /= setupRepeats
	}
	n = max(n, 8)
	return n, max(n/10, min(n, 32))
}

// setUp builds one rig: inputs from the seed, the engines the specs
// name, data populated, one warm-up slice per engine.
func setUp(wl workload, opt options, specs []engineSpec) *rig {
	sh := wl.shape()
	r := &rig{wl: wl, sh: sh, threads: min(sh.threads, runtime.NumCPU())}
	r.n, r.warm = sizes(sh, opt)
	wl.gen(opt.seed, r.threads, r.total())
	r.lat = make([][]int64, r.threads)
	for th := range r.lat {
		r.lat[th] = make([]int64, 0, r.n/sh.latEvery+2)
	}
	for _, s := range specs {
		o := s.opts
		if s.label == opt.sabotage {
			o.wrap = func(_, _ int, b body) body {
				l := &lossyTx{}
				return func(tx tm.Tx) { l.Tx = tx; b(l) }
			}
		}
		r.engines = append(r.engines, buildEngine(s.kind, s.label, wl, r.threads, r.n, o))
	}
	for _, e := range r.engines {
		r.slice(e, 0, r.warm)
		e.takeSpans(false)
		e.markWarm()
	}
	return r
}

// settleTime is how long a run keeps every CPU busy before it sets up.
// For the first three seconds or so after the reference container has
// been idle, a hand-off between its two CPUs costs a third of what it
// costs from then on (TLSTM runs smalltx at 0.9 M tx/s, then at 0.36 M),
// so without it setup_s and the first round depend on what ran before.
const settleTime = 3 * time.Second

func settle(d time.Duration) {
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for end := time.Now().Add(d); time.Now().Before(end); {
			}
		}()
	}
	wg.Wait()
}

// sliceStat is one slice of one engine.
type sliceStat struct {
	wall     time.Duration
	delta    counters // Stats() over the slice
	mallocs  uint64
	p50, p99 float64 // µs, driver-timed Atomic call → return
	samples  int
}

func (s sliceStat) txPerSec(r *rig) float64 {
	return float64(r.threads*r.n) / s.wall.Seconds()
}

func (s sliceStat) nsPerTx(r *rig) float64 {
	return float64(s.wall.Nanoseconds()) / float64(r.n) // per user-thread transaction
}

// loop runs transactions [lo, hi) of one user-thread. It is the whole
// timed region: the cursor store, the call, the output check.
func (r *rig) loop(e *engine, th, lo, hi int) (failed int) {
	ut := e.threads[th]
	lat := r.lat[th][:0]
	mask := r.sh.latEvery - 1
	defer func() {
		r.lat[th] = lat
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "bench: %s thread %d: panic: %v\n%s", e.label, th, p, debug.Stack())
			failed = hi - lo
		}
	}()
	for i := lo; i < hi; i++ {
		ut.cur.i = i
		if ut.txb != nil {
			ut.cur.tx = ut.txb.begin(spanTx, -1, i)
		}
		var err error
		if i&mask == 0 {
			t := now()
			err = ut.run()
			lat = append(lat, now()-t)
		} else {
			err = ut.run()
		}
		if ut.txb != nil {
			ut.txb.end(ut.cur.tx)
		}
		if err != nil || !r.wl.ok(&ut.cur) {
			failed++
		}
	}
	return failed
}

// slice runs transactions [lo, hi) on every user-thread of e and times
// them: the threads' streams side by side, or one after the other on an
// engine marked oneAtATime.
func (r *rig) slice(e *engine, lo, hi int) sliceStat {
	before := make([]counters, len(e.threads))
	for th, ut := range e.threads {
		before[th] = ut.stats()
	}
	failed := make([]int, len(e.threads))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs

	start := time.Now()
	if len(e.threads) == 1 || e.oneAtATime {
		for th := range e.threads {
			failed[th] = r.loop(e, th, lo, hi)
		}
	} else {
		var wg sync.WaitGroup
		for th := range e.threads {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				failed[th] = r.loop(e, th, lo, hi)
			}(th)
		}
		wg.Wait()
	}
	st := sliceStat{wall: time.Since(start)}

	runtime.ReadMemStats(&ms)
	st.mallocs = ms.Mallocs - mallocs
	var all []int64
	for th, ut := range e.threads {
		st.delta.add(ut.stats().minus(before[th]))
		r.failed += failed[th]
		r.ran += hi - lo
		all = append(all, r.lat[th]...)
	}
	slices.Sort(all)
	st.samples = len(all)
	st.p50 = medianSorted(all) / 1e3
	st.p99 = float64(quantileSorted(all, 0.99)) / 1e3
	return st
}

// measure runs the measured slices of every engine of every rig,
// round-robin (slice 1 of each engine of each rig, slice 2, …), and
// returns them as [engine][slice × rig]: column i of every engine is the
// same slice of the same rig. Engines that record spans have each
// slice's spans folded and their buffers emptied between slices, outside
// any timed region.
func measure(rigs []*rig) [][]sliceStat {
	stats := make([][]sliceStat, len(rigs[0].engines))
	for s := 0; s < measuredSlices; s++ {
		for _, r := range rigs {
			lo := r.warm + s*r.n
			for k, e := range r.engines {
				stats[k] = append(stats[k], r.slice(e, lo, lo+r.n))
				if e.threads[0].txb != nil {
					e.spans = append(e.spans, e.takeSpans(s == 0))
				}
			}
		}
	}
	return stats
}

// checkDigests compares every engine's end state with what the inputs
// predict and, on single-thread workloads, with the other engines'.
func (r *rig) checkDigests(rep io.Writer) bool {
	want := r.wl.want(r.total())
	var first []uint64
	ok := true
	for _, e := range r.engines {
		curs := make([]*cursor, len(e.threads))
		for th, ut := range e.threads {
			curs[th] = &ut.cur
		}
		got := r.wl.digest(e.direct, e.data, curs)
		for i, w := range want {
			if w.known && got[i] != w.v {
				fmt.Fprintf(rep, "FAIL %s: digest[%d] = %d, the inputs predict %d\n", e.label, i, got[i], w.v)
				ok = false
			}
		}
		if !r.wl.deterministic() {
			continue
		}
		if first == nil {
			first = got
		} else if !slices.Equal(first, got) {
			fmt.Fprintf(rep, "FAIL %s: digest %v differs from %s's %v\n", e.label, got, r.engines[0].label, first)
			ok = false
		}
	}
	return ok
}

// runWorkload is one benchmark run: untraced (the end-to-end metrics) or
// traced (the per-layer metrics).
func runWorkload(opt options) (*outcome, error) {
	wl, err := newWorkload(opt.workload)
	if err != nil {
		return nil, err
	}
	if opt.seconds <= 0 || opt.scale <= 0 {
		return nil, fmt.Errorf("-seconds and -scale must be positive")
	}
	out := &outcome{
		Workload: opt.workload, Trace: opt.trace, Seed: opt.seed, Seconds: opt.seconds,
		result: result{Metrics: map[string]metricValue{}},
		Slices: map[string][]float64{},
	}
	rep := opt.report
	if rep == nil {
		rep = io.Discard
	}

	settle(time.Duration(opt.scale * float64(settleTime)))
	var rigs []*rig
	if opt.trace {
		rigs, err = runTraced(wl, opt, out)
	} else {
		rigs = runEndToEnd(wl, opt, out)
	}
	if err != nil {
		return nil, err
	}
	out.SliceTx, out.Threads = rigs[0].n, rigs[0].threads
	correct := true
	for _, r := range rigs {
		out.Attempted += r.ran
		out.Failed += r.failed
		correct = r.checkDigests(rep) && correct
		r.closeAll() // every TLSTM worker joined before anything is reported
	}
	if !correct {
		// A wrong end state taints every operation of the run.
		out.Failed = out.Attempted
	}
	out.Correct = out.Failed == 0
	if opt.trace {
		out.set("failed_share", float64(out.Failed)/float64(out.Attempted))
	}
	if e := rigs[0].engines[engWTSTM]; e.oneAtATime && len(e.threads) > 1 {
		out.note("wtstm ran the %d streams one after the other (engine defect, see README): its numbers are uncontended", len(e.threads))
	}
	printReport(rep, out)
	return out, nil
}

func runEndToEnd(wl workload, opt options, out *outcome) []*rig {
	// The collector is held off while setting up, so that setup_s times
	// the set-up work and not when a cycle happens to start; it runs
	// once before the measured slices, which allocate nothing.
	gc := debug.SetGCPercent(-1)
	rigs := make([]*rig, setupRepeats)
	setups := make([]float64, setupRepeats)
	for i := range rigs {
		t := time.Now()
		rigs[i] = setUp(wl, opt, defaultEngines())
		setups[i] = time.Since(t).Seconds()
	}
	debug.SetGCPercent(gc)
	runtime.GC()
	stats := measure(rigs)
	r := rigs[0] // the rigs are the same size

	out.set("setup_s", setups...)
	tps := make([][]float64, numEngines)
	for k := range tps {
		tps[k] = column(stats[k], func(s sliceStat) float64 { return s.txPerSec(r) })
		out.set(e2eNames[k]+"_tx_per_s", tps[k]...)
	}
	speed := make([]float64, len(tps[engCore]))
	vspeed := make([]float64, len(speed))
	for s := range speed {
		speed[s] = tps[engCore][s] / tps[engSTM][s]
		vspeed[s] = float64(stats[engSTM][s].delta.virtual) / float64(stats[engCore][s].delta.virtual)
	}
	out.set("tlstm_speedup", speed...)
	out.set("tlstm_vspeedup", vspeed...)
	for _, k := range []int{engCore, engSTM} {
		out.set(e2eNames[k]+"_lat_p50_us", column(stats[k], p50)...)
		out.note("%s_lat_p99_us %.4f (a per-layer metric: see the traced run)", e2eNames[k], median(column(stats[k], p99)))
	}
	out.note("latency samples per slice: %d", stats[engCore][0].samples)
	out.note("allocs_per_tx %.6f", allocsPerTx(stats[:numEngines]))
	return rigs
}

func p50(s sliceStat) float64 { return s.p50 }
func p99(s sliceStat) float64 { return s.p99 }

func column(stats []sliceStat, f func(sliceStat) float64) []float64 {
	out := make([]float64, len(stats))
	for i, s := range stats {
		out[i] = f(s)
	}
	return out
}

// allocsPerTx is the heap allocations of the measured slices over the
// transactions they committed.
func allocsPerTx(stats [][]sliceStat) float64 {
	var mallocs, commits uint64
	for _, eng := range stats {
		for _, s := range eng {
			mallocs += s.mallocs
			commits += s.delta.commits
		}
	}
	return float64(mallocs) / float64(commits)
}

// Indexes of the traced rig's engines (tracedEngines' order).
const (
	tePlain    = 0              // the four runtimes at default configuration
	teAdaptive = numEngines     // TLSTM with the mode ladder armed
	teRecorder = numEngines + 1 // TLSTM with the flight recorder armed
	teSpans    = numEngines + 2 // the four runtimes, decorated, recording spans
	teMem      = teSpans + numEngines
	teNull     = teMem + 1
)

func tracedEngines() []engineSpec {
	out := defaultEngines()
	out = append(out,
		engineSpec{engCore, "core+adaptive", engineOpts{adaptive: true}},
		engineSpec{engCore, "core+recorder", engineOpts{recorder: txtrace.NewRecorder(0)}})
	for k := 0; k < numEngines; k++ {
		out = append(out, engineSpec{k, layerNames[k] + "+spans", engineOpts{decorate: true, spans: true}})
	}
	return append(out,
		engineSpec{engDirect, "mem+spans", engineOpts{spans: true}},
		engineSpec{engDirect, "mem", engineOpts{}})
}

// runTraced is the separate run behind the per-layer metrics. One rig
// holds, interleaved slice by slice: the four runtimes as the untraced
// run has them (Stats() counts and the reference speed), TLSTM with the
// mode ladder and with the flight recorder armed (their overhead), the
// four runtimes with counting decorators and spans, and the bodies on
// mem.Direct with and without spans (raw-memory floor, driver null run).
func runTraced(wl workload, opt options, out *outcome) ([]*rig, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r := setUp(wl, opt, tracedEngines())
	runtime.GC()
	stats := measure([]*rig{r})
	txs := float64(measuredSlices * r.threads * r.n) // measured transactions per engine

	// Stats() of the undecorated runtimes over the measured slices.
	var total [numEngines]counters
	for k := range total {
		for _, s := range stats[tePlain+k] {
			d := s.delta
			d.virtual = 0
			total[k].add(d)
		}
	}
	if r.threads == 1 {
		out.exactUpTo = byInputs
		if c := total[engCore]; c.taskRestarts+c.aborts == 0 {
			out.exactUpTo = byEngine
		}
	}

	// Spans and the tm.Tx counter.
	perSlice := func(e *engine, f func(sliceSpans) float64) []float64 {
		vals := make([]float64, len(e.spans))
		for i, s := range e.spans {
			vals[i] = f(s)
		}
		return vals
	}
	selfNs := func(s sliceSpans) float64 { return float64(s.selfNs) / float64(s.txs) }
	accessNs := func(s sliceSpans) float64 { return float64(s.bodyNs) / float64(s.loads+s.stores) }
	mem := r.engines[teMem]
	out.set("mem.access_ns", perSlice(mem, accessNs)...)
	out.set("mem.accesses_per_tx", perSlice(mem, func(s sliceSpans) float64 { return float64(s.loads+s.stores) / float64(s.txs) })...)
	out.set("mem.stores_per_tx", perSlice(mem, func(s sliceSpans) float64 { return float64(s.stores) / float64(s.txs) })...)
	dropped := 0
	for k := 0; k < numEngines; k++ {
		e := r.engines[teSpans+k]
		out.set(layerNames[k]+".outside_body_ns_per_tx", perSlice(e, selfNs)...)
		out.set(layerNames[k]+".access_ns", perSlice(e, accessNs)...)
		for _, s := range e.spans {
			dropped += s.dropped
		}
	}
	for _, k := range []int{engCore, engSTM} {
		out.set(layerNames[k]+".access_tax_ns",
			out.Metrics[layerNames[k]+".access_ns"].Value-out.Metrics["mem.access_ns"].Value)
	}
	coreSpans := r.engines[teSpans+engCore]
	out.set("app.body_ns_per_tx", perSlice(coreSpans, func(s sliceSpans) float64 { return float64(s.unionNs) / float64(s.txs) })...)
	out.set("app.ops_per_tx", perSlice(coreSpans, func(s sliceSpans) float64 { return float64(s.ops) / float64(s.txs) })...)

	for k := range total {
		out.set(layerNames[k]+".abort_ratio", ratio(total[k].aborts, total[k].aborts+total[k].commits))
	}
	c := total[engCore]
	out.set("core.task_restarts_per_tx", float64(c.taskRestarts)/txs)
	out.set("core.snapshot_extensions_per_ktx", 1e3*float64(c.extensions)/txs)
	out.set("stm.snapshot_extensions_per_ktx", 1e3*float64(total[engSTM].extensions)/txs)
	out.set("clock.cas_retries_per_ktx", 1e3*float64(c.casRetries)/txs)
	out.set("txlog.readset_p50", float64(c.readSets.Quantile(0.5)))
	out.set("txlog.writeset_p50", float64(c.writeSets.Quantile(0.5)))
	out.set("txlog.entry_reclaims_per_tx", float64(c.reclaims)/txs)
	out.set("txlog.horizon_stalls_per_ktx", 1e3*float64(c.stalls)/txs)
	out.set("cm.abort_self_share", ratio(c.cmSelf, c.cmSelf+c.cmOwner))
	out.set("cm.backoff_spins_per_ktx", 1e3*float64(c.backoff)/txs)
	out.set("sched.descriptor_reuses_per_tx", float64(c.reuses)/txs)
	out.set("sched.workers_spawned", float64(r.engines[tePlain+engCore].totals().spawned))
	out.set("allocs_per_tx", allocsPerTx(stats[tePlain:tePlain+numEngines]))
	for _, k := range []int{engCore, engSTM} {
		out.set(e2eNames[k]+"_lat_p99_us", column(stats[tePlain+k], p99)...)
	}
	out.note("latency samples per slice: %d", stats[tePlain+engCore][0].samples)

	// The decorators of the decorated TLSTM, warm-up excluded.
	clk, pol := coreSpans.clk, coreSpans.pol
	out.set("clock.now_per_tx", float64(clk.now.Load()-coreSpans.warm[0])/txs)
	out.set("clock.tick_per_tx", float64(clk.tick.Load()-coreSpans.warm[1])/txs)
	out.set("clock.observe_per_tx", float64(clk.observe.Load()-coreSpans.warm[2])/txs)
	out.set("cm.conflicts_per_ktx", 1e3*float64(pol.conflicts.Load()-coreSpans.warm[3])/txs)

	// Overheads: the same slices with and without the observer.
	tpsOf := func(k int) []float64 {
		return column(stats[k], func(s sliceStat) float64 { return s.txPerSec(r) })
	}
	overhead := func(k int) []float64 {
		plain, armed := tpsOf(tePlain+engCore), tpsOf(k)
		pct := make([]float64, len(plain))
		for s := range pct {
			pct[s] = 100 * (plain[s]/armed[s] - 1)
		}
		return pct
	}
	out.set("mode.armed_overhead_pct", overhead(teAdaptive)...)
	out.set("txtrace.armed_overhead_pct", overhead(teRecorder)...)
	out.set("bench.trace_overhead_pct", overhead(teSpans+engCore)...)
	out.set("bench.driver_ns_per_tx", column(stats[teNull], func(s sliceStat) float64 { return s.nsPerTx(r) / float64(r.threads) })...)
	out.set("bench.driver_allocs_per_tx", column(stats[teNull], func(s sliceStat) float64 { return float64(s.mallocs) / float64(r.threads*r.n) })...)

	isolatedTimings(r, out, opt.scale)

	runtime.ReadMemStats(&ms1)
	out.set("bench.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)

	// How much of the traced TLSTM's wall time the spans account for:
	// tx self time + union of body spans against the slice clock.
	var spanNs, wallNs float64
	for s, sp := range coreSpans.spans {
		spanNs += float64(sp.selfNs + sp.unionNs)
		wallNs += float64(stats[teSpans+engCore][s].wall.Nanoseconds()) * float64(r.threads)
	}
	out.set("bench.span_coverage_pct", 100*spanNs/wallNs)
	out.note("plain TLSTM slice %.0f ns/tx beside driver null run %.0f ns/tx",
		median(column(stats[tePlain+engCore], func(s sliceStat) float64 { return s.nsPerTx(r) })),
		out.Metrics["bench.driver_ns_per_tx"].Value)
	if dropped > 0 {
		out.note("%d spans dropped (buffers full)", dropped)
	}

	if opt.outDir != "" {
		dump := map[string][]dumpSpan{}
		for k := 0; k < numEngines; k++ {
			dump[layerNames[k]] = r.engines[teSpans+k].dump
		}
		dump["mem"] = mem.dump
		path, err := writeTraceFile(opt.outDir, opt.workload, dump)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		out.note("spans of each engine's first %d transactions: %s", dumpTxs, path)
	}
	return []*rig{r}, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
