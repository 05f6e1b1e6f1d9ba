package core

import (
	"runtime"
	"time"
	"unsafe"

	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mode"
	"tlstm/internal/txlog"
	"tlstm/internal/txrt"
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
)

// commitCost is the modeled per-task commit serialization cost in work
// units, used by the virtual-time model (DESIGN.md §3).
const commitCost = 2

// commitStep is the task's commit procedure (Alg. 3 lines 65–77): wait
// for all past tasks of the user-thread to complete, run the gated WAR
// validation, then either mark this task completed and wait for the
// user-transaction to commit (intermediate task) or commit the whole
// user-transaction (commit-task).
func (t *Task) commitStep() {
	thr := t.thr
	ser := t.serial.Load()

	// Commits of tasks of the same user-thread are serialized: wait for
	// every task with a lower serial to complete (lines 66–68).
	for thr.completedTask.Load() < ser-1 {
		t.checkSignals()
		runtime.Gosched()
	}
	t.checkSignals()

	// Previously undetected WAR conflicts (lines 69–70): validate when
	// a writer completed since we last validated.
	t.maybeValidate()

	// That was the attempt's last validate-task: from here on the read
	// log's FirstPast markers are never compared again (commit-time
	// validation is version-based), so the entry-reclamation audit may
	// stop charging this task. A transaction abort from here restarts
	// through begin, which reopens the window.
	t.readHorizon.Store(horizonDead)

	if !t.tryCommit {
		// Intermediate task (lines 71–77): publish completion, then
		// wait until the commit-task commits the user-transaction. The
		// wait gates on the committed-transaction frontier (txDone),
		// NOT on completedTask, and the distinction is load-bearing for
		// entry reclamation: finishCommit stores completedTask before
		// it publishes the frontier, so a completedTask-gated exit
		// could free this slot — letting the submitter arm serial
		// ser+SPECDEPTH — while the frontier still trails, and the
		// abort sweep's retirement stamp (frontier + SPECDEPTH) would
		// no longer bound every armed serial. Exiting only after the
		// publish keeps "armed serial ≤ frontier + SPECDEPTH" a
		// whole-runtime invariant (see reclaim.go).
		if t.writeLog.Len() > 0 {
			thr.completedWriter.Store(ser)
		}
		thr.completedTask.Store(ser)
		for thr.txDone.Seq() < t.tx.commitSerial {
			if t.tx.abortTx.Load() {
				if t.rendezvousMayCommit(true) {
					// The signal arrived after the commit-task passed
					// its last validation: the transaction committed
					// and the "abort" was spurious (see
					// rendezvousMayCommit). Exit the wait normally.
					return
				}
				if t.traced {
					t.tr.Record(txtrace.KindAbort, t.validTS, uint64(ser), txtrace.AbortSignal)
				}
				panic(restartSignal{})
			}
			runtime.Gosched()
		}
		return
	}

	t.commitTransaction()
}

// commitTransaction is the commit-task's user-transaction commit
// (Alg. 3 lines 78–94): it considers the read and write logs of every
// task of the transaction, locks and publishes all buffered writes, and
// finally signals completion of the whole transaction.
func (t *Task) commitTransaction() {
	tx := t.tx
	thr := t.thr
	rt := thr.rt

	writeTx := false
	for _, task := range tx.tasks {
		if task.writeLog.Len() > 0 {
			writeTx = true
			break
		}
	}

	if !writeTx {
		// Read-only transaction: tasks may have completed at different
		// logical times; if their valid-ts values diverge the union of
		// their reads must be revalidated, otherwise commit is free
		// (§3.3, "Commit").
		sameTS := true
		for _, task := range tx.tasks {
			if task.validTS != t.validTS {
				sameTS = false
				break
			}
		}
		if !sameTS {
			if failed := t.validateTxReads(nil); failed != nil {
				t.noteConflictPair(failed)
				t.recordTxValidate(t.validTS, false)
				t.abortOwnTx()
			}
		}
		t.finishCommit(0, false)
		return
	}

	// Optimistic pre-lock validation (line 78): cheaper to discover a
	// doomed transaction before acquiring r-locks.
	if failed := t.validateTxReads(nil); failed != nil {
		t.noteConflictPair(failed)
		t.recordTxValidate(t.validTS, false)
		t.abortOwnTx()
	}

	// Lock the r-locks of every written pair, remembering displaced
	// versions for restoration on failure (lines 81–83). Several tasks
	// may have written the same pair; lock it once. The scratch is
	// thread-owned and reused, so steady-state commits do not allocate.
	scr := &thr.commitScratch
	scr.Reset()
	for _, task := range tx.tasks {
		for _, e := range task.writeLog.Entries() {
			if scr.LockPair(e.Pair) {
				t.workAcc++
			}
		}
	}

	ts := rt.Clk.Tick(&t.clkProbe) // line 84

	if failed := t.validateTxReads(scr); failed != nil { // line 85
		scr.Restore()
		t.noteConflictPair(failed)
		t.recordTxValidate(ts, false)
		t.abortOwnTx()
	}
	t.recordTxValidate(ts, true)

	// Feed the multi-version store while memory still holds the
	// pre-images this commit is about to overwrite: each written word's
	// current committed value was valid over [displaced r-lock version,
	// ts), exactly the interval stamp a VersionedStore entry carries.
	// When several tasks wrote the same word the publishes are
	// identical duplicates — they only cost ring slots, never
	// correctness.
	if mv := rt.MV; mv != nil {
		for _, task := range tx.tasks {
			for _, e := range task.writeLog.Entries() {
				if pre, ok := scr.Saved(e.Pair); ok {
					for _, w := range e.Words {
						mv.Publish(w.Addr, rt.Store.LoadWord(w.Addr), pre, ts)
					}
				}
			}
		}
	}

	// Publish every task's buffered writes in serial order, so that when
	// several tasks wrote the same word the latest in program order wins
	// (lines 87–89; tx.tasks is already serial-ordered and each write
	// log is in program order).
	for _, task := range tx.tasks {
		for _, e := range task.writeLog.Entries() {
			for _, w := range e.Words {
				rt.Store.StoreWord(w.Addr, w.Val)
				if t.traced {
					// Written-word identities land on the commit task's
					// ring, between its Validate and Commit events, so the
					// opacity checker can rebuild per-slot version
					// histories. Same-word repeats across tasks dedup
					// offline.
					t.tr.Record(txtrace.KindCommitWord, ts, uint64(w.Addr), 0)
				}
				t.workAcc++
			}
		}
	}

	// Release: publish the new version, then drop the redo chain if its
	// head belongs to this transaction (lines 90–92). If a task of a
	// future transaction already stacked an entry on top, the chain
	// stays; the committed entries below it now mirror memory, and the
	// future transaction's own commit or abort will unwind them. Pairs
	// whose chain we actually dropped are marked in the scratch: only
	// their entries are detached, so only they retire into the free
	// rings (finishCommit); entries left chained are dropped to the GC.
	for _, p := range scr.Pairs() {
		p.R.Store(ts)
		h := p.W.Load()
		if h != nil && h.Owner.ThreadID == thr.id &&
			h.Serial >= tx.startSerial && h.Serial <= tx.commitSerial {
			if p.W.CompareAndSwap(h, nil) {
				scr.MarkReleased(p)
			}
		}
	}

	// Ring the Retry doorbells of waiters whose read sets intersect this
	// commit's writes — after the versions above are published, so a
	// woken waiter revalidates against post-commit state. One atomic
	// load when nobody waits; the entries are still live (retirement
	// happens in finishCommit).
	if hub := rt.Hub; hub.Active() {
		var fp mode.Fingerprint
		for _, task := range tx.tasks {
			for _, e := range task.writeLog.Entries() {
				fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(e.Pair)))
			}
		}
		hub.Notify(fp)
	}

	t.finishCommit(ts, true)
}

// validateTxReads validates the committed reads of every task of the
// transaction against current r-lock versions, returning the first
// failing pair (nil when every read is valid — the pair feeds the
// conflict sketch). Pairs r-locked by this commit (recorded in scr;
// nil during the optimistic pre-lock pass) compare against their
// displaced version.
func (t *Task) validateTxReads(scr *txlog.CommitScratch) *locktable.Pair {
	for _, task := range t.tx.tasks {
		for i, re := range task.readLog.Entries() {
			if re.Version == noVersion {
				continue // speculative read; validated intra-thread
			}
			if i%8 == 0 {
				t.workAcc++
			}
			cur := re.Pair.R.Load()
			if cur == re.Version {
				continue
			}
			if cur == locktable.Locked && scr != nil {
				if pre, ours := scr.Saved(re.Pair); ours && pre == re.Version {
					continue
				}
			}
			return re.Pair
		}
	}
	return nil
}

// recordTxValidate records a commit-time whole-transaction validation
// pass on the commit-task's flight recorder — and, on failure, the
// validation abort that inevitably follows (every failing caller aborts
// the transaction next).
func (t *Task) recordTxValidate(clock uint64, ok bool) {
	if !t.traced {
		return
	}
	var n uint64
	for _, task := range t.tx.tasks {
		n += uint64(task.readLog.Len())
	}
	aux := uint32(0)
	if ok {
		aux = 1
	}
	t.tr.Record(txtrace.KindValidate, clock, n, aux)
	if !ok {
		t.tr.Record(txtrace.KindAbort, clock, uint64(t.serial.Load()), txtrace.AbortValidation)
	}
}

// abortOwnTx aborts this task's entire user-transaction: commit-time
// inter-thread conflict (§3.2, "Transaction abort").
func (t *Task) abortOwnTx() {
	t.tx.abortTx.Store(true)
	t.rendezvous()
	panic(restartSignal{})
}

// finishCommit publishes the transaction's completion (Alg. 3 lines
// 93–94), folds statistics and the virtual-time model, and releases
// waiters.
func (t *Task) finishCommit(ts uint64, writeTx bool) {
	tx := t.tx
	thr := t.thr
	ser := t.serial.Load()

	// Virtual-time model: tasks start together; task k finishes at
	// max(own work, finish of task k−1) + commit cost (serialized
	// commits). See DESIGN.md §3.
	var finish, work uint64
	for _, task := range tx.tasks {
		w := task.workAcc
		work += w
		if w > finish {
			finish = w
		}
		finish += commitCost
	}

	// Fold into the thread's unshared stats shard. This must happen
	// BEFORE completedTask is advanced: that store is what releases the
	// next transaction's commit-task, so folding first keeps
	// finishCommit invocations strictly serialized per thread — the
	// shard needs no mutex (SNIPPETS-style per-thread stats).
	thr.stats.TxCommitted++
	thr.stats.TxAborted += tx.txAborts.Load()
	thr.stats.TaskRestarts += tx.taskRestarts.Load()
	thr.stats.RestartWAR += tx.restartKind[restartWAR].Load()
	thr.stats.RestartWAW += tx.restartKind[restartWAW].Load()
	thr.stats.RestartExtend += tx.restartKind[restartExtend].Load()
	thr.stats.RestartCM += tx.restartKind[restartCM].Load()
	thr.stats.RestartSandbox += tx.restartKind[restartSandbox].Load()
	thr.stats.RestartRetry += tx.restartKind[restartRetry].Load()
	thr.stats.Work += work
	thr.stats.VirtualTime += finish

	// Execution-mode ladder signals: finishCommit usually runs on a
	// worker while the controller is submitter-owned, so the outcome
	// flows through the thread's signal atomics and the submitter folds
	// the deltas into its controller at the next submission boundary.
	thr.ctlCommits.Add(1)
	// Aborts fold at abort time (cleanupTx), so a storm registers while
	// it is happening; only the commit and defeat outcomes fold here.
	if tx.cmDefeats.Load() > 0 {
		thr.ctlDefeats.Add(1)
	}

	// Clock- and contention-probe counters fold (and clear) per task
	// under the same serialization that protects workAcc: intermediate
	// tasks are parked until the completedTask store below, and their
	// next incarnation's accesses are ordered after it. The policy's
	// commit bookkeeping runs per task for the same reason each task
	// has its own probe: Karma's account lives in the probe, and an
	// intermediate task's lost work must be settled at its
	// transaction's commit too, or the carry would outlive the
	// transaction and inflate that descriptor's priority forever.
	var txWrites uint64
	for _, task := range tx.tasks {
		thr.stats.SnapshotExtensions += task.extends
		task.extends = 0
		thr.stats.ClockCASRetries += task.clkProbe.TakeRetries()
		cmSelf, cmOwner, spins := task.cmProbe.TakeCounts()
		thr.stats.CMAbortsSelf += cmSelf
		thr.stats.CMAbortsOwner += cmOwner
		thr.stats.BackoffSpins += spins
		reclaims, stalls := task.writeLog.TakeReclaimCounts()
		thr.stats.EntryReclaims += reclaims
		thr.stats.HorizonStalls += stalls
		thr.stats.MVReads += task.mvReads
		task.mvReads = 0
		thr.stats.MVMisses += task.mvMisses
		task.mvMisses = 0
		// Conflict-sketch fold: into the thread shard for reporting and
		// into the remap window the placement step below consumes.
		thr.stats.ConflictSketch.Merge(task.sketch)
		thr.stats.CrossShardConflicts += task.crossShard
		thr.remapWindow.Merge(task.sketch)
		task.sketch = txstats.Sketch{}
		task.crossShard = 0
		// Set-size histograms: read before RetireCommitted empties the
		// write logs below. A wait-free read-only task logs nothing, so
		// the multi-version fast path shows up as read-set size 0.
		thr.stats.ReadSetSizes.Observe(task.readLog.Len())
		thr.stats.WriteSetSizes.Observe(task.writeLog.Len())
		txWrites += uint64(task.writeLog.Len())
		// Rolled-back attempt latencies fold like the probes above —
		// accumulated by whichever goroutine ran each task, read here
		// after the tasks have completed (intermediate tasks are parked
		// until the completedTask store below).
		thr.stats.RestartLatency.Merge(task.restartLat)
		task.restartLat = txstats.Hist{}
		thr.stats.RetryWakes += task.retryWakes
		task.retryWakes = 0
		cm.Committed(thr.rt.CM, &task.cmSelf)
	}
	thr.stats.CommitLatency.Observe(int(time.Since(t.attemptStart)))
	thr.stats.Attempts.Observe(int(tx.txAborts.Load()) + 1)
	if t.traced {
		t.tr.Record(txtrace.KindCommit, ts, txWrites, 0)
	}

	// Affinity remap step: every txrt.RemapPeriod commits, hand the window of
	// conflict observations since the last check to the placement policy
	// and adopt whatever home it decides. finishCommit is serialized per
	// thread, so the window and countdown need no synchronization; only
	// the home itself is shared (tasks read it on conflict paths).
	thr.txSinceRemap++
	if thr.txSinceRemap >= txrt.RemapPeriod {
		thr.txSinceRemap = 0
		if thr.rt.Placement.Rebalance(int(thr.id), thr.remapWindow) {
			old := thr.homeShard.Load()
			home := int32(thr.rt.Placement.Home(int(thr.id)))
			thr.homeShard.Store(home)
			thr.stats.Remaps++
			if t.traced {
				t.tr.Record(txtrace.KindRemap, ts, uint64(home), uint32(old))
			}
		}
		thr.remapWindow = txstats.Sketch{}
	}

	// Retire the transaction's write-lock entries into their
	// descriptors' free rings (entry lifecycle: armed → committed →
	// retired → quiescent → reused). The chains were dropped by the
	// release loop above, so the entries are detached; tasks whose
	// attempts could still hold one as a FirstPast marker are exactly
	// those armed by now, and every serial armed at any moment is at
	// most the committed frontier plus SPECDEPTH — hence the retirement
	// serial below, which reuse waits for. The epoch bump must follow
	// the detach and precede this transaction's txDone publish so tasks
	// arming after the frontier passes observe it (the audit's
	// happens-before edge). Intermediate tasks of this transaction are
	// parked until the txDone publish below (their commit wait gates on
	// the latch), so pushing into their rings is unraced, and their
	// next incarnation's pops are ordered after it.
	if writeTx {
		epoch := thr.retireEpoch.Add(1)
		at := tx.startSerial - 1 + int64(thr.depth)
		horizon := thr.txDone.Seq()
		for _, task := range tx.tasks {
			task.writeLog.RetireCommitted(&thr.commitScratch, at, epoch, horizon)
		}
	}

	// Deferred frees of every task take effect now that the
	// transaction's writes are durable. This, too, must precede the
	// completedTask store: that store releases the transaction's
	// intermediate tasks, whose recycled descriptors — frees slices
	// included — may be re-armed with new state the moment they exit.
	for _, task := range tx.tasks {
		for _, a := range task.frees {
			thr.rt.Alloc.Free(a)
		}
	}

	if writeTx {
		thr.completedWriter.Store(ser)
	}
	thr.completedTask.Store(ser)

	// Release waiters: the sequence-numbered latch replaces the
	// per-transaction done channel. Serials are never reused, so a
	// handle can at worst observe "already committed" — never block on
	// a recycled descriptor.
	thr.txDone.Publish(tx.commitSerial)
}
