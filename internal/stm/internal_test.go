package stm

import (
	"testing"

	"tlstm/internal/locktable"
	"tlstm/internal/tm"
	"tlstm/internal/txrt"
)

// White-box tests for SwissTM's validation and locking internals.

func TestExtendAdvancesValidTS(t *testing.T) {
	rt := New()
	var a tm.Addr
	rt.Atomic(nil, func(tx *Tx) { a = tx.Alloc(1) })

	rt.Atomic(nil, func(tx *Tx) {
		tx.Load(a)
		before := tx.validTS
		// Another transaction commits elsewhere, moving the clock.
		done := make(chan struct{})
		go func() {
			rt.Atomic(nil, func(tx2 *Tx) { tx2.Store(tx2.Alloc(1), 1) })
			close(done)
		}()
		<-done
		if !tx.Extend(&tx.readLog, &tx.validTS, 0) {
			t.Error("extension over a disjoint commit must succeed")
		}
		if tx.validTS <= before {
			t.Error("extend must advance valid-ts")
		}
	})
}

func TestExtendFailsOnOverwrittenRead(t *testing.T) {
	rt := New()
	var a tm.Addr
	rt.Atomic(nil, func(tx *Tx) { a = tx.Alloc(1) })

	attempts := 0
	rt.Atomic(nil, func(tx *Tx) {
		attempts++
		tx.Load(a)
		if attempts == 1 {
			// Overwrite the read location from another transaction:
			// the first attempt must abort (extension fails), the
			// retry must succeed.
			done := make(chan struct{})
			go func() {
				rt.Atomic(nil, func(tx2 *Tx) { tx2.Store(a, 99) })
				close(done)
			}()
			<-done
			if tx.Extend(&tx.readLog, &tx.validTS, 0) {
				t.Error("extension over an overwritten read must fail")
			}
			tx.abort(0)
		}
	})
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one forced abort)", attempts)
	}
}

func TestWriteLockReleasedAfterCommitAndAbort(t *testing.T) {
	rt := New()
	var a tm.Addr
	rt.Atomic(nil, func(tx *Tx) { a = tx.Alloc(1) })
	p := rt.locks.For(a)

	rt.Atomic(nil, func(tx *Tx) { tx.Store(a, 1) })
	if p.W.Load() != nil {
		t.Fatal("w-lock held after commit")
	}
	ver := p.R.Load()
	if ver == 0 || ver == locktable.Locked {
		t.Fatalf("r-lock version not published: %d", ver)
	}

	func() {
		defer func() { _ = recover() }()
		rt.Atomic(nil, func(tx *Tx) {
			tx.Store(a, 2)
			panic("boom")
		})
	}()
	if p.W.Load() != nil {
		t.Fatal("w-lock held after user panic")
	}
	if p.R.Load() != ver {
		t.Fatal("r-lock version must be unchanged after an abort")
	}
	if rt.LoadWordRaw(a) != 1 {
		t.Fatal("aborted write leaked to memory (redo logging broken)")
	}
}

func TestReadOwnWriteThroughEntry(t *testing.T) {
	rt := New()
	var a tm.Addr
	rt.Atomic(nil, func(tx *Tx) { a = tx.Alloc(1) })
	rt.Atomic(nil, func(tx *Tx) {
		tx.Store(a, 7)
		if got := tx.Load(a); got != 7 {
			t.Fatalf("read-own-write = %d", got)
		}
		if rt.LoadWordRaw(a) == 7 {
			t.Fatal("redo write must not reach memory before commit")
		}
	})
	if rt.LoadWordRaw(a) != 7 {
		t.Fatal("commit did not publish")
	}
}

// Lock-pair collisions: two addresses sharing a pair must still commit
// their own values correctly.
func TestCollisionSharedPairValues(t *testing.T) {
	rt := New(WithLockTableBits(4)) // 16 pairs
	d := rt.Direct()
	a := d.Alloc(1)
	// Layout.Index is a Fibonacci hash, so no fixed stride collides:
	// search a fresh block for a word sharing a's pair.
	const n = 256
	block, b := d.Alloc(n), tm.Addr(0)
	for c := block; c < block+n && b == 0; c++ {
		if rt.locks.For(c) == rt.locks.For(a) {
			b = c
		}
	}
	if b == 0 {
		t.Fatalf("no word of a %d-word block shares a's lock pair", n)
	}
	rt.Atomic(nil, func(tx *Tx) {
		tx.Store(a, 1)
		tx.Store(b, 2)
		if tx.Load(a) != 1 || tx.Load(b) != 2 {
			t.Error("collided writes must stay distinct in the entry")
		}
	})
	if d.Load(a) != 1 || d.Load(b) != 2 {
		t.Fatal("collided writes published incorrectly")
	}
}

func TestWorkChargesIncludeAbortedAttempts(t *testing.T) {
	rt := New()
	var a tm.Addr
	rt.Atomic(nil, func(tx *Tx) { a = tx.Alloc(1) })

	var st Stats
	attempts := 0
	rt.Atomic(&st, func(tx *Tx) {
		attempts++
		tx.Load(a)
		if attempts == 1 {
			tx.abort(0) // simulate a conflict-induced retry
		}
	})
	if st.Aborts != 1 {
		t.Fatalf("Aborts = %d, want 1", st.Aborts)
	}
	// Two attempts must be charged at least two tx-start costs.
	if st.Work < 2*txrt.TxStartCost {
		t.Fatalf("Work = %d, want ≥ %d (aborted attempt must be charged)", st.Work, 2*txrt.TxStartCost)
	}
}
