package core

import (
	"runtime"
	"sync/atomic"

	"tlstm/internal/locktable"
)

// unwindWrites removes this task's redo-chain entries and retires them
// into the descriptor's free ring. It is idempotent: a transaction-abort
// cleanup may already have removed (and retired) them, in which case the
// log is empty here.
func (t *Task) unwindWrites() {
	if t.writeLog.Len() == 0 {
		return
	}
	t.thr.chainMu.Lock()
	for _, e := range t.writeLog.Entries() {
		removeEntryLocked(e)
	}
	t.thr.chainMu.Unlock()
	// Retire, never Recycle: other tasks may still hold these entries
	// as chain-identity markers (see the read-entry comment in
	// task.go), so reuse must wait for the quiescence horizon. Ordering
	// matters for the audit's happens-before argument: detach first
	// (above), then bump the retirement epoch, then sample the frontier
	// for the stamp — a task arming after the frontier passes the stamp
	// is then guaranteed to observe the bumped epoch.
	t.retireWriteLog()
}

// retireWriteLog queues every (already detached) logged entry for
// horizon-gated reuse: retirement serial = committed frontier +
// SPECDEPTH, the upper bound on serials armed — and hence possibly
// holding a stale pointer — at this moment. The bound holds because a
// slot frees only when its previous task exits, and every exit is
// gated on the task's transaction having PUBLISHED its commit to
// txDone (the intermediate wait in commitStep deliberately gates on
// the latch, not completedTask): armed serial n therefore implies
// frontier ≥ n − SPECDEPTH.
func (t *Task) retireWriteLog() {
	thr := t.thr
	epoch := thr.retireEpoch.Add(1)
	horizon := thr.txDone.Seq()
	t.writeLog.Retire(horizon+int64(thr.depth), epoch, horizon)
}

// removeEntryLocked unlinks e from its pair's redo chain. The caller
// holds the owning thread's chainMu, which serializes all removals on
// this thread's chains; pushes (head CAS by tasks of the same thread)
// are handled by the retry loop.
func removeEntryLocked(e *locktable.WEntry) {
	p := e.Pair
	for {
		h := p.W.Load()
		if h == nil {
			return // chain already gone (e.g. committed and dropped)
		}
		if h == e {
			if p.W.CompareAndSwap(e, e.Prev.Load()) {
				return
			}
			continue // a push or a commit release raced us; retry
		}
		// e sits mid-chain: splice it out through its successor. Only
		// removals mutate Prev links and they are serialized by
		// chainMu, so the walk is stable.
		s := h
		for s != nil && s.Prev.Load() != e {
			s = s.Prev.Load()
		}
		if s == nil {
			return // e is no longer linked
		}
		s.Prev.Store(e.Prev.Load())
		return
	}
}

// rendezvous coordinates a whole-transaction abort (paper §3.2,
// "Transaction abort"): every task of the user-transaction parks here;
// the last one to arrive unwinds the transaction's speculative state and
// opens a new round; everyone then restarts. A task may also arrive
// after the round already finished (it read the abort flag just before
// it was cleared); it then simply returns and its caller restarts it,
// which is harmless.
//
// allowCommit is the escape hatch for the one caller that needs it, the
// intermediate-task commit wait. There — and only there — the abort flag
// can be raised after the commit-task has passed its final validation:
// the round then can never complete (the commit-task finishes without
// ever acking) and the signal is necessarily spurious, e.g. a stale
// cross-thread reader of a recycled descriptor's owner header aborting a
// transaction that was already done. With allowCommit, a parked task
// watches the thread's committed latch and reports true once its
// transaction commits, so its caller exits the commit wait normally
// instead of parking forever. Every other call site runs before the task
// has completed, so its transaction cannot commit under it.
func (t *Task) rendezvous(allowCommit bool) (committed bool) {
	tx := t.tx

	tx.mu.Lock()
	if !tx.abortTx.Load() {
		tx.mu.Unlock()
		return false
	}
	gen := tx.gen
	tx.acks++
	if tx.acks == tx.participants && !tx.cleaning {
		tx.cleaning = true
		tx.mu.Unlock()

		t.cleanupTx()

		tx.mu.Lock()
		tx.acks = 0
		tx.gen++
		tx.cleaning = false
		tx.abortTx.Store(false)
		tx.mu.Unlock()
		return false
	}
	tx.mu.Unlock()

	for {
		tx.mu.Lock()
		g := tx.gen
		tx.mu.Unlock()
		if g != gen {
			return false
		}
		if allowCommit && t.thr.txDone.Seq() >= tx.commitSerial {
			return true
		}
		runtime.Gosched()
	}
}

// cleanupTx is Alg. 3 rollback-transaction, executed by exactly one task
// while every participant of the transaction is parked:
//
//  1. every write-lock taken by any task of the transaction is unwound
//     (line 96–99);
//  2. the thread's completion counters are reset below the transaction
//     (lines 100–101) — lowered only, since an earlier transaction of
//     the thread may still be in flight below us;
//  3. active tasks beyond the transaction are signalled aborted-
//     internally: they may have read our speculative state, and the
//     counter reset also invalidates their validation gates. (The paper
//     resets "the tasks' state to their last known correct values";
//     restarting the speculative suffix is the simple sound version.)
func (t *Task) cleanupTx() {
	tx := t.tx
	thr := t.thr

	// Only descriptors the submitter has armed for THIS incarnation may
	// be swept: tx.tasks names every descriptor the transaction will
	// use, but a not-yet-armed one still belongs to (or is retiring
	// from) an earlier transaction, and its write log is not ours to
	// read. The armed load is the acquire matching the submitter's
	// post-reset increment, so every swept log is the freshly reset
	// one. Armed tasks are all parked in the rendezvous (or on their
	// way to joinTx, having touched nothing yet), so the sweep runs
	// unraced.
	n := int(tx.armed.Load())
	if n > len(tx.tasks) {
		n = len(tx.tasks)
	}
	thr.chainMu.Lock()
	for _, task := range tx.tasks[:n] {
		for _, e := range task.writeLog.Entries() {
			removeEntryLocked(e)
		}
	}
	thr.chainMu.Unlock()

	// Retire the swept entries into their descriptors' free rings and
	// empty the swept logs, so the participants' own unwindWrites (run
	// when they wake from the rendezvous) cannot retire them twice.
	// The participants are parked until the round closes, so mutating
	// their logs here is unraced, and the round's mutex hand-off orders
	// these writes before their next access. Detach (above) precedes
	// the epoch bump inside retireWriteLog, as the audit requires.
	for _, task := range tx.tasks[:n] {
		if task.writeLog.Len() > 0 {
			task.retireWriteLog()
		}
	}

	lowerCounter(&thr.completedTask, tx.startSerial-1)
	lowerCounter(&thr.completedWriter, tx.startSerial-1)

	for i := range thr.slots {
		// Serial is atomic because the submitter may be re-arming a
		// freed slot while we scan; at worst we signal a brand-new
		// incarnation beyond the transaction, which costs it one
		// harmless restart.
		if p := thr.slots[i].Load(); p != nil && p.serial.Load() > tx.commitSerial {
			p.abortInternal.Store(true)
		}
	}

	// A fresh round of attempts must not inherit the aborted round's
	// frozen snapshot: if the transaction is still on the wait-free
	// read-only path it resamples (the abort may have been raised
	// precisely because the snapshot was too old to serve).
	tx.snapshot.Store(mvSnapUnset)

	tx.txAborts.Add(1)
}

// lowerCounter moves c down to v; it never raises it (completions of
// earlier transactions may race with an abort and must win).
func lowerCounter(c *atomic.Int64, v int64) {
	for {
		cur := c.Load()
		if cur <= v || c.CompareAndSwap(cur, v) {
			return
		}
	}
}
