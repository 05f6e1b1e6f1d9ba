// Command tlstm-stress hammers the TLSTM runtime with adversarial
// concurrent workloads and checks its two fundamental guarantees:
//
//   - TLS sequential semantics: each user-thread's random program,
//     decomposed into random speculative tasks, leaves memory exactly
//     as its sequential execution would;
//   - transactional atomicity across threads: concurrent random
//     transfers over a shared account array preserve the global total.
//
// It is meant for long soak runs: tlstm-stress -seconds 60 -threads 4.
// The soak runs under any contention-management policy (-cm backoff)
// and either execution rung (-mode serial runs every transaction under
// the runtime's gate; -mode spec, the default, runs them all
// speculatively). Entry reclamation can be forced aggressive (-reclaim 1:
// single-slot quiescence rings, recycling on almost every commit) and
// audited (-audit: every recycle re-verifies the quiescence invariant
// and panics on violation). -mv K retains K committed versions per word
// and -romix P makes P% of the soak's transactions declared read-only
// full-array scans, each asserting the exact preserved total at its
// snapshot — the strongest cheap check of the wait-free multi-version
// read path.
//
// Every soak iteration also runs one transaction of a write-skew mix
// (skewOp) and, at -depth 2 or more, its two-task form (ringSkewOp),
// whose invariant only commit-time read validation keeps.
//
// -sweep <axis> (cm, mode or mv) swaps the soak for that
// invariant-checked sweep across all four runtimes (harness.Sweeps);
// -seconds N runs N times the sweep's quick size per thread.
//
// The exit line and the -metrics feed list every field of core.Stats
// once, under one name (txstats.Each: txCommitted, restartWAR,
// virtualTime, …). Their commitLatency and restartLatency histograms are
// sampled: each descriptor times one attempt in 64, its first included,
// so their counts are counts of sampled attempts. attempts and every
// counter are exact.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"tlstm/internal/core"
	"tlstm/internal/harness"
	"tlstm/internal/runflags"
	"tlstm/internal/tm"
	"tlstm/internal/txcheck"
	"tlstm/internal/txmetrics"
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
	"tlstm/internal/xrand"
)

func main() {
	os.Exit(run())
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 { return xrand.Splitmix(&r.s) }

// skewPairs pairs (x, y) of signed balances, each side opening at
// skewStart, keep x + y >= 0.
const skewPairs, skewStart = 4, 50

// skewOp runs one write-skew transaction on the pair at p: a withdrawal
// (two in three) reads both sides and takes up to the balance from one,
// a deposit adds to one side. Balances stay low, so two withdrawals that
// read the same balance and write different sides overdraw the pair
// unless commit-time validation aborts one: they write no common word.
// The yield between read and write makes them overlap on few CPUs. Every
// attempt reads a committed snapshot, so a negative balance panics.
func skewOp(thr *core.Thread, r *rng, p tm.Addr) {
	side, amt, withdraw := p+tm.Addr(r.next()%2), int64(r.next()%100), r.next()%3 != 0
	if err := thr.Atomic(func(tk *core.Task) {
		bal := int64(tk.Load(p)) + int64(tk.Load(p+1))
		if bal < 0 {
			panic(fmt.Sprintf("tlstm-stress: write-skew pair at %#x saw x+y=%d", p, bal))
		}
		if !withdraw {
			tk.Store(side, uint64(int64(tk.Load(side))+amt))
			return
		}
		runtime.Gosched()
		if w := min(amt, bal); w > 0 {
			tk.Store(side, uint64(int64(tk.Load(side))-w))
		}
	}); err != nil {
		panic(err)
	}
}

// statsSnapshot is the live-metrics view of st: every counter and
// histogram under its txstats.Each name.
func statsSnapshot(st core.Stats) txmetrics.Snapshot {
	snap := txmetrics.Snapshot{Counters: map[string]uint64{}, Hists: map[string]txstats.Hist{}}
	txstats.Each(st, func(name string, n uint64) { snap.Counters[name] = n },
		func(name string, h txstats.Hist) { snap.Hists[name] = h })
	return snap
}

// exitLine is the soak's report: the runtime's settings, then every
// counter of st as name=n and every histogram as name[summary], under
// the names of the live metrics.
func exitLine(rt *core.Runtime, st core.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cm=%s mode=%s mv=%d", rt.CMName(), rt.ModeName(), rt.MVDepth())
	txstats.Each(st, func(name string, n uint64) { fmt.Fprintf(&b, " %s=%d", name, n) },
		func(name string, h txstats.Hist) { fmt.Fprintf(&b, " %s[%s]", name, h) })
	return b.String()
}

// ringSkewOp is skewOp's withdrawal split over two shipped tasks (depth
// >= 2): task 1 reads one side of the pair at p and forwards it through
// the thread-private word priv; task 2 yields, bumps the word every
// thread bumps (so its snapshot extends past commits made since task 1
// read), reads the other side and withdraws from it. Only the oldest
// task's snapshot proves that task 1's read is still current at commit,
// so a commit that skips validation on task 2's extended snapshot
// overdraws the pair. Task 2 cannot check x+y itself: its reads are
// consistent with each other but not with task 1's, which the sandbox
// does not see, so only an aborting attempt may read x+y < 0 here.
func ringSkewOp(thr *core.Thread, r *rng, p, priv, bump tm.Addr) {
	s := tm.Addr(r.next() % 2)
	read, side, amt := p+s, p+1-s, int64(r.next()%100)
	h, err := thr.Submit(
		func(tk *core.Task) { tk.Store(priv, tk.Load(read)) },
		func(tk *core.Task) {
			runtime.Gosched()
			tk.Store(bump, tk.Load(bump)+1)
			bal := int64(tk.Load(priv)) + int64(tk.Load(side))
			if w := min(amt, bal); w > 0 {
				tk.Store(side, uint64(int64(tk.Load(side))-w))
			}
		})
	if err != nil {
		panic(err)
	}
	h.Wait()
}

func run() int {
	seconds := flag.Int("seconds", 10, "soak duration")
	threads := flag.Int("threads", 3, "user-threads")
	depth := flag.Int("depth", 3, "SPECDEPTH / tasks per transaction")
	accounts := flag.Int("accounts", 64, "shared accounts")
	reclaimRing := flag.Int("reclaim", 0, "cap each descriptor's quiescence ring of retired write-lock entries (0 = unbounded; 1 = aggressive, recycling exercised on almost every commit)")
	reclaimAudit := flag.Bool("audit", false, "enable the entry-reclamation invariant checker: every recycle re-verifies the quiescence horizon against all live task attempts (panics on violation)")
	roMix := flag.Int("romix", 0, "percent of soak transactions that are declared read-only scans: each task sums every account at the transaction's snapshot and requires the exact preserved total")
	check := flag.Bool("check", false, "arm the flight recorder (even without -trace) and run the offline opacity checker (internal/txcheck) on the recorded trace at soak exit; fails the run on any violation")
	metricsAddr := flag.String("metrics", "", "serve live metrics over HTTP on this address (/debug/vars, /debug/pprof) and print one-line stat deltas every 2s; threads sync their stats shards periodically so the feed is live")
	soak := func(name string) runflags.Rule { return runflags.Rule{Flag: name, Scope: runflags.NoSweep} }
	rf := runflags.Register(flag.CommandLine, soak("depth"), soak("accounts"), soak("reclaim"),
		soak("audit"), soak("romix"), soak("check"), soak("metrics"))
	flag.Parse()

	// Fail fast on malformed flags: every one of these used to be
	// swallowed (clamped, ignored, or deferred to a panic mid-soak), so a
	// typo cost a full soak run before anyone noticed.
	set, err := rf.Settings()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-stress: %v\n", err)
		return 2
	}
	if *roMix < 0 || *roMix > 100 {
		fmt.Fprintf(os.Stderr, "tlstm-stress: -romix %d: must be a percentage in 0..100\n", *roMix)
		return 2
	}
	if *reclaimRing < 0 {
		fmt.Fprintf(os.Stderr, "tlstm-stress: -reclaim %d: ring cap cannot be negative\n", *reclaimRing)
		return 2
	}

	if sw, ok := harness.Sweeps[rf.Sweep]; ok {
		txs := sw.Tx / 10 * *seconds
		fmt.Printf("## %s (all runtimes, %d threads, %d tx/thread)\n", sw.Title, *threads, txs)
		for _, r := range sw.Run(*threads, txs) {
			fmt.Println(r)
		}
		fmt.Println("OK: every sweep row's end state verified")
		return 0
	}

	if set.Trace == nil && *check {
		set.Trace = txtrace.NewRecorder(0)
	}
	rec := set.Trace
	var traceOut *os.File
	if rf.Trace != "" {
		// Create the dump file before the soak: an unwritable -trace path
		// fails here in a millisecond instead of after the whole run.
		traceOut, err = os.Create(rf.Trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: -trace: %v\n", err)
			return 2
		}
	}
	cfg := harness.CoreConfig(set.Config(), *depth)
	cfg.ReclaimRing, cfg.ReclaimAudit = *reclaimRing, *reclaimAudit
	rt := core.New(cfg)
	defer rt.Close()

	// checkReport holds the opacity checker's verdicts once -check has
	// run at soak exit; the txcheck metrics source below reads it, so
	// the counters appear on /debug/vars scrapes taken after the check.
	var checkReport atomic.Pointer[txcheck.Report]

	// syncEvery > 0 makes each soak thread merge its stats shard into
	// the runtime aggregate every N transactions, so the live metrics
	// feed moves during the run instead of only at the end. A Sync after
	// a completed Atomic is nearly free (the thread is quiescent).
	syncEvery := 0
	stopMetrics := make(chan struct{})
	if *metricsAddr != "" {
		syncEvery = 512
		pub := txmetrics.New()
		pub.AddSource("tlstm", func() txmetrics.Snapshot { return statsSnapshot(rt.Stats()) })
		if rec != nil {
			pub.SetTrace(rec)
		}
		if *check {
			pub.AddSource("txcheck", func() txmetrics.Snapshot {
				rep := checkReport.Load()
				if rep == nil {
					return txmetrics.Snapshot{}
				}
				return txmetrics.Snapshot{Counters: rep.Counters()}
			})
			pub.Publish("txcheck")
		}
		pub.Publish("tlstm")
		bound, err := txmetrics.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: -metrics: %v\n", err)
			return 2
		}
		fmt.Printf("metrics: serving http://%s/debug/vars (pprof at /debug/pprof)\n", bound)
		go func() {
			tick := time.NewTicker(2 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stopMetrics:
					return
				case <-tick.C:
					if line := pub.DeltaLine(); line != "" {
						fmt.Printf("metrics: %s\n", line)
					}
				}
			}
		}()
	}
	d := rt.Direct()
	const initial = 1_000_000
	base := d.Alloc(*accounts)
	for i := 0; i < *accounts; i++ {
		d.Store(base+tm.Addr(i), initial)
	}
	skew := d.Alloc(2 * skewPairs)
	for i := 0; i < 2*skewPairs; i++ {
		d.Store(skew+tm.Addr(i), skewStart)
	}
	bump := d.Alloc(1)

	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	done := make(chan core.Stats, *threads)

	for w := 0; w < *threads; w++ {
		thr := rt.NewThread()
		priv := d.Alloc(1)
		go func(seed uint64) {
			r := &rng{s: seed}
			nAcct := *accounts
			want := uint64(nAcct) * initial
			// scan is one read-only task: sum every account at the
			// transaction's snapshot. Transfers preserve the total, so
			// ANY consistent snapshot — wait-free multi-version or
			// validated — must see it exactly; a stale, torn or too-new
			// multi-version read almost surely breaks the sum. The panic
			// is safe under speculation: an inconsistent validated
			// attempt is sandbox-restarted, and the wait-free path reads
			// one frozen snapshot, so its sums can only fail for real
			// bugs.
			scan := func(tk *core.Task) {
				var sum uint64
				for i := 0; i < nAcct; i++ {
					sum += tk.Load(base + tm.Addr(i))
				}
				if sum != want {
					panic(fmt.Sprintf("tlstm-stress: read-only scan saw total=%d want=%d", sum, want))
				}
			}
			txSinceSync := 0
			for time.Now().Before(deadline) {
				if syncEvery > 0 {
					if txSinceSync++; txSinceSync >= syncEvery {
						thr.Sync() // publish this shard to the live metrics feed
						txSinceSync = 0
					}
				}
				skewOp(thr, r, skew+tm.Addr(2*(r.next()%skewPairs)))
				if *depth >= 2 {
					ringSkewOp(thr, r, skew+tm.Addr(2*(r.next()%skewPairs)), priv, bump)
				}
				if *roMix > 0 && r.next()%100 < uint64(*roMix) {
					// Every task of the declared read-only transaction
					// scans independently; with SPECDEPTH > 1 this also
					// exercises the shared frozen snapshot across tasks.
					fns := make([]core.TaskFunc, *depth)
					for i := range fns {
						fns[i] = scan
					}
					if err := thr.AtomicRO(fns...); err != nil {
						panic(err)
					}
					continue
				}
				// A transaction of `depth` tasks moving money along a
				// random cycle: task i moves amt from a_i to a_{i+1}.
				n := *depth
				idx := make([]tm.Addr, n+1)
				for i := range idx {
					idx[i] = base + tm.Addr(r.next()%uint64(*accounts))
				}
				amt := r.next() % 100
				fns := make([]core.TaskFunc, n)
				for i := 0; i < n; i++ {
					from, to := idx[i], idx[i+1]
					fns[i] = func(tk *core.Task) {
						f := tk.Load(from)
						if from != to && f >= amt {
							tk.Store(from, f-amt)
							tk.Store(to, tk.Load(to)+amt)
						}
					}
				}
				// Half the transfers go through Submit, which always ships
				// every task: Atomic fuses short transfers into one task, and
				// the soak must keep exercising intra-thread speculation.
				if r.next()%2 == 0 {
					h, err := thr.Submit(fns...)
					if err != nil {
						panic(err)
					}
					h.Wait()
				} else if err := thr.Atomic(fns...); err != nil {
					panic(err)
				}
			}
			thr.Sync()
			done <- thr.Stats()
		}(uint64(w + 1))
	}

	var total core.Stats
	for w := 0; w < *threads; w++ {
		total.Add(<-done)
	}
	close(stopMetrics)

	if traceOut != nil {
		// Every thread has Synced and its completion was received above,
		// so every ring owner is quiesced: the dump is race-free. The
		// file itself was created before the soak started.
		if err := rec.Dump(traceOut); err != nil {
			traceOut.Close()
			fmt.Fprintf(os.Stderr, "tlstm-stress: writing trace: %v\n", err)
			return 1
		}
		if err := traceOut.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: writing trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace: %d rings, %d events, %d dropped -> %s\n",
			len(rec.Rings()), rec.Events(), rec.Drops(), rf.Trace)
	}

	if *check {
		// Same quiesce argument as the file dump above: every ring owner
		// has joined, so serializing to memory and checking is race-free.
		checkStart := time.Now()
		var buf bytes.Buffer
		if err := rec.Dump(&buf); err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: -check: dumping trace: %v\n", err)
			return 1
		}
		tr, err := txtrace.ReadTrace(&buf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: -check: reading trace back: %v\n", err)
			return 1
		}
		if err := tr.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: -check: invalid trace: %v\n", err)
			return 1
		}
		rep, err := txcheck.Check(tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: -check: %v\n", err)
			return 1
		}
		checkReport.Store(rep)
		rep.WriteTable(os.Stdout, time.Since(checkStart))
		if !rep.Ok() {
			fmt.Println("FAIL: opacity violated (see violations above)")
			return 1
		}
	}

	var sum uint64
	for i := 0; i < *accounts; i++ {
		sum += d.Load(base + tm.Addr(i))
	}
	want := uint64(*accounts) * initial
	fmt.Println(exitLine(rt, total))
	if sum != want {
		fmt.Printf("FAIL: total=%d want=%d (atomicity violated)\n", sum, want)
		return 1
	}
	for i := tm.Addr(0); i < 2*skewPairs; i += 2 {
		if x, y := int64(d.Load(skew+i)), int64(d.Load(skew+i+1)); x+y < 0 {
			fmt.Printf("FAIL: write-skew pair at %#x: x=%d y=%d, x+y < 0\n", skew+i, x, y)
			return 1
		}
	}
	fmt.Println("OK: total preserved")
	return 0
}
