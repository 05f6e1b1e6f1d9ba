package core

import (
	"sync/atomic"
	"testing"

	"tlstm/internal/locktable"
)

// White-box tests for the redo-chain and counter machinery.

func TestRemoveEntryHead(t *testing.T) {
	tbl := locktable.NewTable(8)
	p := tbl.For(1)
	e1 := &locktable.WEntry{Serial: 1, Pair: p}
	e2 := &locktable.WEntry{Serial: 2, Pair: p}
	p.W.Store(e1)
	e2.Prev.Store(e1)
	p.W.Store(e2)

	removeEntryLocked(e2)
	if p.W.Load() != e1 {
		t.Fatal("head removal should expose the previous entry")
	}
	removeEntryLocked(e1)
	if p.W.Load() != nil {
		t.Fatal("removing the last entry should unlock the pair")
	}
}

func TestRemoveEntryMidChainSplice(t *testing.T) {
	tbl := locktable.NewTable(8)
	p := tbl.For(2)
	e1 := &locktable.WEntry{Serial: 1, Pair: p}
	e2 := &locktable.WEntry{Serial: 2, Pair: p}
	e3 := &locktable.WEntry{Serial: 3, Pair: p}
	e2.Prev.Store(e1)
	e3.Prev.Store(e2)
	p.W.Store(e3)

	removeEntryLocked(e2)
	if p.W.Load() != e3 {
		t.Fatal("head must be untouched by mid-chain removal")
	}
	if e3.Prev.Load() != e1 {
		t.Fatal("successor must be spliced to the removed entry's Prev")
	}
	// Removing an already-unlinked entry is a no-op.
	removeEntryLocked(e2)
	if e3.Prev.Load() != e1 || p.W.Load() != e3 {
		t.Fatal("idempotence violated")
	}
}

func TestRemoveEntryGoneChain(t *testing.T) {
	tbl := locktable.NewTable(8)
	p := tbl.For(3)
	e := &locktable.WEntry{Serial: 1, Pair: p}
	// Chain already empty (commit dropped it).
	removeEntryLocked(e)
	if p.W.Load() != nil {
		t.Fatal("no-op removal must leave the pair unlocked")
	}
}

func TestLowerCounterNeverRaises(t *testing.T) {
	var c atomic.Int64
	c.Store(5)
	lowerCounter(&c, 10)
	if c.Load() != 5 {
		t.Fatal("lowerCounter must never raise")
	}
	lowerCounter(&c, 3)
	if c.Load() != 3 {
		t.Fatal("lowerCounter must lower")
	}
	lowerCounter(&c, 3)
	if c.Load() != 3 {
		t.Fatal("idempotent at equal value")
	}
}

func TestFirstPastOfSelection(t *testing.T) {
	rt := newRT(4)
	thr := rt.NewThread()
	tx := &txState{thr: thr, startSerial: 3, commitSerial: 3}
	task := &Task{thr: thr, tx: tx, waitBeforeRestart: -1}
	task.serial.Store(3)
	task.ownerRef.ThreadID = thr.ID()

	tbl := locktable.NewTable(8)
	p := tbl.For(7)

	mk := func(serial int64, owner *locktable.OwnerRef) *locktable.WEntry {
		e := &locktable.WEntry{Serial: serial, Pair: p, Owner: owner}
		return e
	}
	other := &locktable.OwnerRef{ThreadID: thr.ID()}

	// nil chain → nil.
	if task.firstPastOf(nil) != nil {
		t.Fatal("nil chain must yield nil")
	}
	// Other thread's chain → nil.
	foreign := &locktable.OwnerRef{ThreadID: thr.ID() + 1}
	if task.firstPastOf(mk(1, foreign)) != nil {
		t.Fatal("foreign chain must yield nil")
	}
	// Chain: 5 → (mine:3) → 2 → 1: the first past entry is serial 2.
	e1 := mk(1, other)
	e2 := mk(2, other)
	mine := mk(3, &task.ownerRef)
	e5 := mk(5, other)
	e2.Prev.Store(e1)
	mine.Prev.Store(e2)
	e5.Prev.Store(mine)
	got := task.firstPastOf(e5)
	if got != e2 {
		t.Fatalf("firstPastOf selected serial %d, want 2", got.Serial)
	}
	// Only own and future entries → nil.
	mine2 := mk(3, &task.ownerRef)
	e6 := mk(6, other)
	e6.Prev.Store(mine2)
	if task.firstPastOf(e6) != nil {
		t.Fatal("own/future-only chain must yield nil")
	}
}

func TestWEntryOwnershipByPointer(t *testing.T) {
	rt := newRT(2)
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)

	// After a transaction commits, the chain must be fully unlinked so
	// the next transaction starts fresh.
	if err := thr.Atomic(func(tk *Task) { tk.Store(a, 1) }); err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	p := rt.locks.For(a)
	if p.W.Load() != nil {
		t.Fatal("write lock must be released after commit")
	}
	if p.R.Load() == 0 || p.R.Load() == locktable.Locked {
		t.Fatalf("r-lock version not published: %d", p.R.Load())
	}
}

func TestCommitTSAdvancesOncePerWriteTx(t *testing.T) {
	rt := newRT(3)
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)

	before := rt.CommitTS()
	// Read-only multi-task transaction: no advance.
	if err := thr.Atomic(
		func(tk *Task) { tk.Load(a) },
		func(tk *Task) { tk.Load(a) },
	); err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if rt.CommitTS() != before {
		t.Fatal("read-only transaction advanced commit-ts")
	}
	// Write transaction with three writer tasks: exactly one tick.
	if err := thr.Atomic(
		func(tk *Task) { tk.Store(a, 1) },
		func(tk *Task) { tk.Store(a, 2) },
		func(tk *Task) { tk.Store(a, 3) },
	); err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if rt.CommitTS() != before+1 {
		t.Fatalf("commit-ts advanced by %d, want 1", rt.CommitTS()-before)
	}
}

// The owners window must never hold two tasks in one slot.
func TestSlotExclusivity(t *testing.T) {
	rt := newRT(2)
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	for i := 0; i < 30; i++ {
		h, err := thr.Submit(func(tk *Task) { tk.Store(a, tk.Load(a)+1) })
		if err != nil {
			t.Fatal(err)
		}
		_ = h
	}
	thr.Sync()
	for i := range thr.slots {
		if thr.slots[i].Load() != nil {
			t.Fatalf("slot %d still occupied after Sync", i)
		}
	}
	if d.Load(a) != 30 {
		t.Fatalf("counter = %d, want 30", d.Load(a))
	}
}

// Config defaults must fill in sane values.
func TestConfigDefaults(t *testing.T) {
	rt := New(Config{})
	if rt.SpecDepth() != 4 {
		t.Fatalf("default SpecDepth = %d, want 4", rt.SpecDepth())
	}
	if rt.locks.Len() != 1<<20 {
		t.Fatalf("default lock table = %d pairs", rt.locks.Len())
	}
}
