package core

import (
	"fmt"

	"tlstm/internal/txrt"
)

// solo is the txrt.Algorithm of a thread's solo task: TLSTM-1, a
// transaction that does not ship, run by the kit's driver the way stm
// runs a SwissTM transaction (Thread.runSolo). Its Load, Store and commit
// (commitLogs) are the ring tasks' (Task); its attempt boundaries are
// SwissTM's: no commit order to wait on, no rendezvous, no sandbox, and
// the driver takes the gate.
type solo Task

var _ txrt.Algorithm = (*solo)(nil)

// newSolo builds thr's solo task: bound to thr.soloTx and to its own
// greedy slot for its whole life, never placed in a ring slot.
func (thr *Thread) newSolo() *Task {
	rt := thr.rt
	tx := &thr.soloTx
	t := &Task{thr: thr, tx: tx, solo: true, locks: rt.locks, store: rt.Store, waitBeforeRestart: -1}
	t.Init(&rt.Env, (*solo)(t), fmt.Sprintf("core-thr%d-solo", thr.ID()))
	t.ownerRef.ThreadID = thr.ID()
	t.ownerRef.CompletedTask = &thr.completedTask
	t.ownerRef.AbortInternal = &t.abortInternal
	t.ownerRef.BindTx(0, &tx.abortTx, &t.GreedTS)
	t.readHorizon.Store(horizonDead)
	tx.thr = thr
	tx.tasks = []*Task{t}
	tx.logs = []txrt.Logs{{Read: &t.readLog, Write: &t.writeLog}}
	return t
}

// runSolo runs a transaction that does not ship on the thread's solo
// task, through the engine kit's driver (txrt.Desc.RunOn over the
// Algorithm below): SwissTM's retry loop, gate, backoff and commit.
// It first drains the thread's own pipeline, so no task of an earlier
// Submit runs beside the solo task: its entries are then the heads of
// their chains, no sibling can hold one as a FirstPast marker, and they
// recycle SwissTM-style. It takes no serial: the solo task
// carries the one after every serial issued, so the entries earlier
// transactions left chained are past ones, and nothing of the solo
// transaction outlives it in a chain. The fold is finishCommit's for a
// one-task (or fused) transaction.
func (thr *Thread) runSolo(ro bool, fns []TaskFunc) {
	thr.txDone.Wait(thr.nextSerial)
	t, tx := thr.solo, &thr.soloTx
	if len(fns) == 1 {
		t.fn = fns[0]
	} else {
		thr.fusedFns = append(thr.fusedFns[:0], fns...)
		t.fn = runFused
	}
	if start := thr.nextSerial + 1; t.serial.Load() != start {
		t.serial.Store(start)
		t.ownerRef.StartSerial.Store(start)
		t.CMSelf.Start = start
	}
	tx.clearOutcome()

	t.RunOn(&thr.stats.Counters, ro)
	t.fn = nil

	st := &thr.stats
	st.TxCommitted++
	st.DescriptorReuses++
	tx.foldOutcome(st)
	st.VirtualTime += t.Work + commitCost
	if len(fns) > 1 {
		st.TxFused++
		thr.noteOverlap(thr.fusedOverlap)
	}
}

// runFused is a fused transaction's one body: the declared bodies in
// program order on the solo task, whose log lengths after each body give
// the overlap the shipped transaction would have had.
func runFused(t *Task) {
	thr := t.thr
	var sum, most, mark int
	for _, fn := range thr.fusedFns {
		fn(t)
		n := t.readLog.Len() + t.writeLog.Len()
		sum, most, mark = sum+n-mark, max(most, n-mark), n
	}
	thr.fusedOverlap = sum - most
}

// Begin implements txrt.Algorithm: clear the signals a previous attempt
// may have left raised and sample the snapshot. Entries of the previous
// attempt (or transaction) are detached by now — by the commit or by
// Release — so they recycle straight into the pool.
func (s *solo) Begin() uint64 {
	t := (*Task)(s)
	if t.abortInternal.Load() {
		t.abortInternal.Store(false)
	}
	if t.tx.abortTx.Load() {
		t.tx.abortTx.Store(false)
	}
	t.lastWriter = t.thr.completedWriter.Load()
	t.validTS = t.thr.rt.Clk.Now()
	t.readLog.Reset()
	t.writeLog.Recycle()
	return t.validTS
}

// Exec implements txrt.Algorithm: the body, then the commit a ring
// transaction runs (commitLogs), so a transaction costs the same work —
// and virtual time — on both paths.
func (s *solo) Exec() {
	t := (*Task)(s)
	t.fn(t)
	t.checkSignals()
	writes := t.writeLog.Len()
	t.Committed(t.commitLogs(), writes)
}

// Release implements txrt.Algorithm: unlink the attempt's entries. Each
// heads its chain (no other task of the thread runs), so unlinking is one
// CAS back to the committed remainder below it, if any.
func (s *solo) Release() {
	for _, e := range s.writeLog.Entries() {
		e.Pair.W.CompareAndSwap(e, e.Prev.Load())
	}
}

// SetSizes implements txrt.Algorithm (logged reads / locked pairs).
func (s *solo) SetSizes() (reads, writes int) { return s.readLog.Len(), s.writeLog.Len() }
