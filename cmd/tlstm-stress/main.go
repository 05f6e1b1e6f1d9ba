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
// The soak runs under any commit-clock strategy (-clock deferred) and
// any contention-management policy (-cm karma); -clocks swaps the soak
// for the invariant-checked clock-strategy sweep across all four
// runtimes (harness.CompareClocks), and -cms for the policy sweep
// (harness.CompareCM). -mode adaptive arms the execution-mode ladder
// (speculative until sustained conflict, then a serialized global-lock
// rung, recovering once the storm passes); -modes swaps the soak for
// the invariant-checked mode sweep (harness.CompareModes). Entry reclamation can be forced aggressive
// (-reclaim 1: single-slot quiescence rings, recycling on almost every
// commit) and audited (-audit: every recycle re-verifies the
// quiescence invariant and panics on violation). -mv K retains K
// committed versions per word and -romix P makes P% of the soak's
// transactions declared read-only full-array scans, each asserting the
// exact preserved total at its snapshot — the strongest cheap check of
// the wait-free multi-version read path; -mvs swaps the soak for the
// invariant-checked depth sweep across all four runtimes
// (harness.CompareMV). The soak's lock table can be sharded (-shards 4)
// with optional conflict-sketch thread placement (-affinity); -shardss
// swaps the soak for the invariant-checked shard-count sweep across all
// four runtimes (harness.CompareShards).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/core"
	"tlstm/internal/harness"
	"tlstm/internal/mode"
	"tlstm/internal/sched"
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

func run() int {
	seconds := flag.Int("seconds", 10, "soak duration")
	threads := flag.Int("threads", 3, "user-threads")
	depth := flag.Int("depth", 3, "SPECDEPTH / tasks per transaction")
	accounts := flag.Int("accounts", 64, "shared accounts")
	schedMode := flag.String("sched", "pooled", `scheduling policy: "pooled" or "inline" (the soak drives threads through Atomic, which runs the head task on the caller either way; inline only changes what Submit does)`)
	clockName := flag.String("clock", "gv4", `commit-clock strategy: "gv4", "deferred", "sharded" or "gv7"`)
	clockCmp := flag.Bool("clocks", false, "run the invariant-checked clock-strategy sweep (all strategies × all runtimes) instead of the soak; -seconds scales the transaction count")
	cmName := flag.String("cm", "default", `contention-management policy: "suicide", "backoff", "greedy", "karma", "taskaware" or "default" (task-aware)`)
	cmCmp := flag.Bool("cms", false, "run the invariant-checked contention-policy sweep (all policies × all runtimes) instead of the soak; -seconds scales the transaction count")
	modeName := flag.String("mode", "spec", `execution-mode policy: "spec" (always speculative), "adaptive" (ladder with serialized fallback under sustained conflict) or "serial"`)
	modeCmp := flag.Bool("modes", false, "run the invariant-checked execution-mode sweep (all policies × all runtimes, karma conflict storm) instead of the soak; -seconds scales the transaction count")
	reclaimRing := flag.Int("reclaim", 0, "cap each descriptor's quiescence ring of retired write-lock entries (0 = unbounded; 1 = aggressive, recycling exercised on almost every commit)")
	reclaimAudit := flag.Bool("audit", false, "enable the entry-reclamation invariant checker: every recycle re-verifies the quiescence horizon against all live task attempts (panics on violation)")
	mvDepth := flag.Int("mv", 0, "retained version depth for the soak runtime (0 disables multi-versioning)")
	mvCmp := flag.Bool("mvs", false, "run the invariant-checked multi-version depth sweep (K=0..3 × all runtimes, read-mostly mixes) instead of the soak; -seconds scales the transaction count")
	roMix := flag.Int("romix", 0, "percent of soak transactions that are declared read-only scans: each task sums every account at the transaction's snapshot and requires the exact preserved total")
	shards := flag.Int("shards", 0, "lock-table shard count for the soak runtime (a power of two; 0 or 1 keeps the flat table)")
	affinity := flag.Bool("affinity", false, "replace static round-robin thread placement with the conflict-sketch affinity policy (only meaningful with -shards > 1)")
	shardCmp := flag.Bool("shardss", false, "run the invariant-checked lock-table shard-count sweep (N=1,2,4,8 plus affinity legs × all runtimes, hot-word and 90/10 mixes) instead of the soak; -seconds scales the transaction count")
	traceFile := flag.String("trace", "", "arm the flight recorder and write the binary trace dump (TXTRACE2) to this file when the soak ends; inspect with tlstm-trace")
	check := flag.Bool("check", false, "arm the flight recorder (even without -trace) and run the offline opacity checker (internal/txcheck) on the recorded trace at soak exit; fails the run on any violation")
	metricsAddr := flag.String("metrics", "", "serve live metrics over HTTP on this address (/debug/vars, /debug/pprof) and print one-line stat deltas every 2s; threads sync their stats shards periodically so the feed is live")
	flag.Parse()

	// Fail fast on malformed flags: every one of these used to be
	// swallowed (clamped, ignored, or deferred to a panic mid-soak), so a
	// typo cost a full soak run before anyone noticed.
	if *roMix < 0 || *roMix > 100 {
		fmt.Fprintf(os.Stderr, "tlstm-stress: -romix %d: must be a percentage in 0..100\n", *roMix)
		return 2
	}
	if *mvDepth < 0 {
		fmt.Fprintf(os.Stderr, "tlstm-stress: -mv %d: retained version depth cannot be negative\n", *mvDepth)
		return 2
	}
	if *reclaimRing < 0 {
		fmt.Fprintf(os.Stderr, "tlstm-stress: -reclaim %d: ring cap cannot be negative\n", *reclaimRing)
		return 2
	}
	if *shards < 0 || (*shards > 1 && *shards&(*shards-1) != 0) {
		fmt.Fprintf(os.Stderr, "tlstm-stress: -shards %d: shard count must be a power of two\n", *shards)
		return 2
	}
	if *affinity && *shards <= 1 {
		fmt.Fprintf(os.Stderr, "tlstm-stress: -affinity requires -shards > 1 (a flat lock table has nowhere to place threads)\n")
		return 2
	}

	if *shardCmp {
		txs := 2_000 * *seconds
		fmt.Printf("## Lock-table shard sweep (%d threads, %d tx/thread)\n", *threads, txs)
		for _, r := range harness.CompareShards(*threads, txs) {
			fmt.Println(r)
		}
		fmt.Println("OK: all geometry/runtime end states verified")
		return 0
	}

	if *mvCmp {
		txs := 5_000 * *seconds
		fmt.Printf("## Multi-version depth sweep (%d threads, %d tx/thread)\n", *threads, txs)
		for _, r := range harness.CompareMV(*threads, txs) {
			fmt.Println(r)
		}
		fmt.Println("OK: all depth/runtime snapshots and end states verified")
		return 0
	}

	if *clockCmp {
		// ~10k transactions per thread per requested second: a short,
		// deterministic stand-in for the soak that still runs every
		// strategy on every runtime with end-state invariant checks.
		txs := 10_000 * *seconds
		fmt.Printf("## Commit-clock strategy sweep (%d threads, %d tx/thread)\n", *threads, txs)
		for _, r := range harness.CompareClocks(*threads, txs) {
			fmt.Println(r)
		}
		fmt.Println("OK: all strategy/runtime end states verified")
		return 0
	}
	if *cmCmp {
		txs := 5_000 * *seconds
		fmt.Printf("## Contention-management policy sweep (%d threads, %d tx/thread)\n", *threads, txs)
		for _, r := range harness.CompareCM(*threads, txs) {
			fmt.Println(r)
		}
		fmt.Println("OK: all policy/runtime end states verified")
		return 0
	}
	if *modeCmp {
		txs := 5_000 * *seconds
		fmt.Printf("## Execution-mode policy sweep (%d threads, %d tx/thread)\n", *threads, txs)
		for _, r := range harness.CompareModes(*threads, txs) {
			fmt.Println(r)
		}
		fmt.Println("OK: all mode/runtime end states verified")
		return 0
	}

	policy := sched.Pooled
	if *schedMode == "inline" {
		policy = sched.Inline
	}
	kind, err := clock.Parse(*clockName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-stress: %v\n", err)
		return 2
	}
	cmKind, err := cm.Parse(*cmName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-stress: %v\n", err)
		return 2
	}
	modePol, err := mode.Parse(*modeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-stress: %v\n", err)
		return 2
	}
	var rec *txtrace.Recorder
	var traceOut *os.File
	if *traceFile != "" || *check {
		rec = txtrace.NewRecorder(0)
	}
	if *traceFile != "" {
		// Create the dump file before the soak: an unwritable -trace path
		// fails here in a millisecond instead of after the whole run.
		traceOut, err = os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: -trace: %v\n", err)
			return 2
		}
	}
	rt := core.New(core.Config{
		SpecDepth: *depth, Policy: policy, Clock: clock.New(kind), CM: cm.New(cmKind),
		ReclaimRing: *reclaimRing, ReclaimAudit: *reclaimAudit, MVDepth: *mvDepth,
		Shards: *shards, Affinity: *affinity,
		Mode:  mode.Config{Policy: modePol},
		Trace: rec,
	})
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
		pub.AddSource("tlstm", func() txmetrics.Snapshot {
			st := rt.Stats()
			return txmetrics.Snapshot{
				Counters: map[string]uint64{
					"committed": st.TxCommitted, "txAborts": st.TxAborted,
					"taskRestarts": st.TaskRestarts, "work": st.Work,
					"extensions": st.SnapshotExtensions, "clockRetries": st.ClockCASRetries,
					"cmAbortsSelf": st.CMAbortsSelf, "cmAbortsOwner": st.CMAbortsOwner,
					"backoffSpins": st.BackoffSpins, "entryReclaims": st.EntryReclaims,
					"horizonStalls": st.HorizonStalls, "mvReads": st.MVReads, "mvMisses": st.MVMisses,
					"crossShardConflicts": st.CrossShardConflicts, "remaps": st.Remaps,
					"modeFallbacks": st.ModeFallbacks, "modeRecoveries": st.ModeRecoveries,
					"retryWakes": st.RetryWakes,
				},
				Hists: map[string]txstats.Hist{
					"commitLat": st.CommitLatency, "restartLat": st.RestartLatency,
					"attempts": st.Attempts,
				},
			}
		})
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

	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	done := make(chan core.Stats, *threads)

	for w := 0; w < *threads; w++ {
		thr := rt.NewThread()
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
				if err := thr.Atomic(fns...); err != nil {
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
			len(rec.Rings()), rec.Events(), rec.Drops(), *traceFile)
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
	fmt.Printf("committed=%d txAborts=%d taskRestarts=%d work=%d workers=%d descReuse=%d clock=%s ext=%d clkRetry=%d cm=%s cmSelf=%d cmOwner=%d spins=%d mode=%s fallback=%d recover=%d retryWake=%d reclaim=%d stall=%d mv=%d mvRead=%d mvMiss=%d shards=%d place=%s xshard=%d remap=%d rset[%s] wset[%s] commitLat[%s] attempts[%s] restartLat[%s]\n",
		total.TxCommitted, total.TxAborted, total.TaskRestarts, total.Work,
		total.WorkersSpawned, total.DescriptorReuses,
		rt.ClockName(), total.SnapshotExtensions, total.ClockCASRetries,
		rt.CMName(), total.CMAbortsSelf, total.CMAbortsOwner, total.BackoffSpins,
		rt.ModeName(), total.ModeFallbacks, total.ModeRecoveries, total.RetryWakes,
		total.EntryReclaims, total.HorizonStalls,
		rt.MVDepth(), total.MVReads, total.MVMisses,
		rt.Shards(), rt.PlacementName(), total.CrossShardConflicts, total.Remaps,
		total.ReadSetSizes, total.WriteSetSizes,
		total.CommitLatency, total.Attempts, total.RestartLatency)
	if sum != want {
		fmt.Printf("FAIL: total=%d want=%d (atomicity violated)\n", sum, want)
		return 1
	}
	fmt.Println("OK: total preserved")
	return 0
}
