package core

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// submit resets a recycled transaction descriptor's atomics only where
// the previous incarnation left them set. Drive one txRing slot through
// an incarnation that dirties every such field, then reuse it for clean
// transactions: none of them may inherit a count, a latch or a snapshot.
func TestDirtyTxSlotResetsOnReuse(t *testing.T) {
	rt := newMVRT(2, 2)
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	x, y, w := d.Alloc(1), d.Alloc(1), d.Alloc(1)
	d.Store(w, 1)
	depth := int64(thr.depth)
	slot := thr.txRing[thr.txSeq%depth]

	// The dirty incarnation: a shipped two-task declared read-only
	// transaction whose head stores (MV fallback: mvOff, a transaction
	// abort, an MVMisses), then — validated — writes x only after the tail
	// has read it (a WAR restart of the tail), whose next attempt reads the
	// forwarded write and calls Retry once (a Retry restart). The head also
	// stands in for a lost inter-thread conflict: the greedy escalation
	// stamps greedTS and counts a defeat.
	var tailRead, retried atomic.Bool
	head := func(tk *Task) {
		if tk.MVOn {
			tk.Store(x, 1)
		}
		tk.tx.greedTS.CompareAndSwap(0, 1)
		tk.tx.cmDefeats.Add(1)
		for !tailRead.Load() {
			runtime.Gosched()
		}
		tk.Store(x, tk.Load(x)+1)
	}
	tail := func(tk *Task) {
		v := tk.Load(x)
		if !tk.MVOn {
			tailRead.Store(true)
		}
		if v == 1 && retried.CompareAndSwap(false, true) {
			tk.Retry()
		}
		tk.Store(y, v)
	}
	if err := thr.shipAtomicRO(head, tail); err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	// A foreign CM holding a stale owner header signals the committed
	// transaction: abortTx is left set on the idle slot.
	slot.abortTx.Store(true)

	st := thr.Stats()
	if d.Load(x) != 1 || d.Load(y) != 1 {
		t.Fatalf("x, y = %d, %d after the dirty transaction, want 1, 1", d.Load(x), d.Load(y))
	}
	if st.TxAborted == 0 || st.MVMisses == 0 || st.RestartWAR == 0 || st.RestartRetry == 0 {
		t.Fatalf("the dirty transaction missed an event: TxAborted=%d MVMisses=%d RestartWAR=%d RestartRetry=%d",
			st.TxAborted, st.MVMisses, st.RestartWAR, st.RestartRetry)
	}
	if !slot.mvOff.Load() || !slot.abortTx.Load() || slot.greedTS.Load() == 0 || slot.txAborts.Load() == 0 ||
		slot.taskRestarts.Load() == 0 || slot.restartKind[restartWAR].Load() == 0 ||
		slot.restartKind[restartRetry].Load() == 0 || slot.cmDefeats.Load() == 0 {
		t.Fatal("the dirty incarnation did not leave every guarded field set")
	}

	// Reuse: transactions alternate between the two slots, so every
	// other one below lands on the dirty slot (a one-task Atomic runs on
	// the solo task, so these are submitted). The declared read-only
	// ones must run wait-free (mvOff cleared) and the second must read
	// at a fresh snapshot: a stale one would be served w's pre-image
	// from the version ring.
	var mvOn [2]bool
	var seen uint64
	wait := func(h TxHandle, err error) error {
		if err == nil {
			h.Wait()
		}
		return err
	}
	txs := []func() error{
		func() error { return wait(thr.Submit(func(tk *Task) { tk.Store(y, tk.Load(y)+1) })) },
		func() error { return wait(thr.SubmitRO(func(tk *Task) { mvOn[0] = tk.MVOn; seen = tk.Load(w) })) },
		func() error { return wait(thr.Submit(func(tk *Task) { tk.Store(w, 2) })) },
		func() error { return wait(thr.SubmitRO(func(tk *Task) { mvOn[1] = tk.MVOn; seen = tk.Load(w) })) },
	}
	for i, tx := range txs {
		if onDirty := thr.txRing[thr.txSeq%depth] == slot; onDirty != (i%2 == 1) {
			t.Fatalf("reuse %d: on the dirty slot = %v, want %v", i, onDirty, i%2 == 1)
		}
		if err := tx(); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			thr.Sync()
			if slot.snapshot.Load() == mvSnapUnset {
				t.Fatal("the wait-free commit left no snapshot to reset")
			}
		}
	}
	thr.Sync()
	if !mvOn[0] || !mvOn[1] {
		t.Fatalf("declared read-only reuses ran wait-free = %v, want both", mvOn)
	}
	if seen != 2 {
		t.Fatalf("read-only reuse saw w = %d, want 2: it read at the previous incarnation's snapshot", seen)
	}
	got := thr.Stats().Minus(st)
	if got.TxCommitted != uint64(len(txs)) {
		t.Fatalf("TxCommitted delta = %d, want %d", got.TxCommitted, len(txs))
	}
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"TxAborted", got.TxAborted}, {"TaskRestarts", got.TaskRestarts},
		{"RestartWAR", got.RestartWAR}, {"RestartWAW", got.RestartWAW},
		{"RestartExtend", got.RestartExtend}, {"RestartCM", got.RestartCM},
		{"RestartSandbox", got.RestartSandbox}, {"RestartRetry", got.RestartRetry},
		{"MVMisses", got.MVMisses},
	} {
		if c.n != 0 {
			t.Errorf("clean reuse counted %s = %d, want 0", c.name, c.n)
		}
	}
}
