package core

import (
	"runtime"

	"tlstm/internal/txtrace"
)

// commitCost is the modeled per-task commit serialization cost in work
// units, used by the virtual-time model (README, "Reproducing the
// paper's figures").
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
	// through Begin, which reopens the window.
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
				if t.rendezvous(true) {
					// The signal arrived after the commit-task passed
					// its last validation: the transaction committed
					// and the "abort" was spurious (see
					// rendezvous). Exit the wait normally.
					return
				}
				t.Abort(t.validTS, txtrace.AbortSignal)
			}
			runtime.Gosched()
		}
		return
	}

	t.commitTransaction()
}

// commitTransaction is the commit-task's user-transaction commit
// (Alg. 3 lines 78–94). The commit itself is SwissTM's over every task's
// logs (commitLogs); what is TLS-specific is the read-only check below
// and finishCommit's completion of the whole transaction.
func (t *Task) commitTransaction() {
	tx := t.tx
	for _, task := range tx.tasks {
		if task.writeLog.Len() > 0 {
			t.finishCommit(t.commitLogs(), true)
			return
		}
	}
	// Read-only transaction: tasks may have completed at different
	// logical times; if their valid-ts values diverge the union of their
	// reads must be revalidated, otherwise commit is free (§3.3,
	// "Commit").
	for _, task := range tx.tasks {
		if task.validTS != t.validTS {
			if !t.ValidateLogs(tx.logs, nil) {
				t.TraceValidateLogs(t.validTS, tx.logs, false)
				t.abortOwnTx(txtrace.AbortValidation)
			}
			break
		}
	}
	t.finishCommit(0, false)
}

// commitLogs commits the transaction's logs — a ring transaction's or
// the solo task's — through the kit's commit, over the thread-owned
// scratch so steady-state commits do not allocate, and returns the commit
// timestamp. The snapshot it passes is the oldest of the tasks' (each
// task extends its own): only that one proves that nothing committed
// since, so only a stamp one above it skips validation. A failed
// validation aborts the transaction.
func (t *Task) commitLogs() uint64 {
	snap := t.validTS
	for _, task := range t.tx.tasks {
		snap = min(snap, task.validTS)
	}
	ts, ok := t.Commit(t.tx.logs, &t.thr.commitScratch, snap)
	if !ok {
		// Commit traced the failed validation.
		t.abortOwnTx(txtrace.AbortValidation)
	}
	return ts
}

// abortOwnTx aborts this task's entire user-transaction for reason
// (§3.2, "Transaction abort").
func (t *Task) abortOwnTx(reason uint32) {
	t.tx.abortTx.Store(true)
	t.abortRound(reason)
}

// abortRound joins the transaction's abort rendezvous, which counts the
// round, and restarts the attempt for reason. The solo task has no
// rendezvous to join: it counts its own.
func (t *Task) abortRound(reason uint32) {
	if t.solo {
		t.tx.txAborts.Add(1)
	} else {
		t.rendezvous(false)
	}
	t.Abort(t.validTS, reason)
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
	// commits). See README, "Reproducing the paper's figures".
	var finish uint64
	for _, task := range tx.tasks {
		finish = max(finish, task.Work) + commitCost
	}

	// Fold into the thread's unshared stats shard. This must happen
	// BEFORE completedTask is advanced: that store is what releases the
	// next transaction's commit-task, so folding first keeps
	// finishCommit invocations strictly serialized per thread — the
	// shard needs no mutex (SNIPPETS-style per-thread stats). The same
	// order makes reading the other tasks' descriptors here unraced:
	// intermediate tasks are parked until the txDone publish below, and
	// their next incarnation's accesses are ordered after it.
	st := &thr.stats
	st.TxCommitted++
	tx.foldOutcome(st)
	st.VirtualTime += finish

	// Every task is what a SwissTM transaction was (§3.2), so each closes
	// like one through the kit (Desc.Close): set sizes (read before
	// RetireCommitted empties the write logs below), attempts and
	// latencies are per task. Deferred frees take effect here, before the
	// completedTask store below releases the intermediate tasks'
	// descriptors for re-arming.
	var txWrites uint64
	var sum, most int
	for _, task := range tx.tasks {
		n := task.readLog.Len() + task.writeLog.Len()
		sum, most = sum+n, max(most, n)
		// A writer commit took the pools' counts; a read-only one did not.
		reclaims, stalls := task.writeLog.TakeReclaimCounts()
		task.EntryReclaims, task.HorizonStalls = task.EntryReclaims+reclaims, task.HorizonStalls+stalls
		txWrites += uint64(task.writeLog.Len())
		task.Close(&st.Counters)
		task.ApplyFrees()
	}
	if t.Traced {
		t.Tr.Record(txtrace.KindCommit, ts, txWrites, 0)
	}

	// Spawn-decision signal (shipOverlap): a multi-task commit moves the
	// thread's average overlap toward this transaction's.
	if len(tx.tasks) > 1 {
		thr.noteOverlap(sum - most)
	}

	// Retire the transaction's write-lock entries into their
	// descriptors' free rings (entry lifecycle: armed → committed →
	// retired → quiescent → reused). The commit's release dropped the
	// chains (txlog.CommitScratch.Release), so the entries are detached;
	// tasks whose attempts could still hold one as a FirstPast marker
	// are exactly those armed by now, and every serial armed at any
	// moment is at most the committed frontier plus SPECDEPTH — hence the
	// retirement serial below, which reuse waits for. The epoch bump must follow
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
