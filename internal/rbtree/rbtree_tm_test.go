package rbtree

import (
	"math/rand"
	"sync"
	"testing"

	"tlstm/internal/core"
	"tlstm/internal/stm"
	"tlstm/internal/tm"
)

// The tree must behave identically under the SwissTM baseline.
func TestOracleUnderSTM(t *testing.T) {
	rt := stm.New()
	var tr Tree
	rt.Atomic(nil, func(tx *stm.Tx) { tr = New(tx) })

	rng := rand.New(rand.NewSource(11))
	oracle := map[int64]uint64{}
	for i := 0; i < 800; i++ {
		k := int64(rng.Intn(120))
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64() % 999
			rt.Atomic(nil, func(tx *stm.Tx) { tr.Insert(tx, k, v) })
			oracle[k] = v
		case 1:
			rt.Atomic(nil, func(tx *stm.Tx) { tr.Delete(tx, k) })
			delete(oracle, k)
		default:
			var got uint64
			var ok bool
			rt.Atomic(nil, func(tx *stm.Tx) { got, ok = tr.Lookup(tx, k) })
			want, existed := oracle[k]
			if ok != existed || (ok && got != want) {
				t.Fatalf("op %d: Lookup(%d) = %d,%v; want %d,%v", i, k, got, ok, want, existed)
			}
		}
	}
	var msg string
	rt.Atomic(nil, func(tx *stm.Tx) { msg = tr.CheckInvariants(tx) })
	if msg != "" {
		t.Fatal(msg)
	}
}

// The tree must behave identically under TLSTM with multi-task
// transactions (lookups split across speculative tasks, as in the
// paper's Figure 1a microbenchmark).
func TestOracleUnderTLSTM(t *testing.T) {
	rt := core.New(core.Config{SpecDepth: 2, LockTableBits: 16})
	thr := rt.NewThread()
	d := rt.Direct()
	tr := New(d)

	rng := rand.New(rand.NewSource(12))
	oracle := map[int64]uint64{}
	for i := 0; i < 250; i++ {
		k1 := int64(rng.Intn(80))
		k2 := int64(rng.Intn(80))
		v := rng.Uint64() % 999
		switch rng.Intn(3) {
		case 0:
			// Two inserts split across two tasks of one transaction.
			err := thr.Atomic(
				func(tk *core.Task) { tr.Insert(tk, k1, v) },
				func(tk *core.Task) { tr.Insert(tk, k2, v+1) },
			)
			if err != nil {
				t.Fatal(err)
			}
			oracle[k1] = v
			oracle[k2] = v + 1
			if k1 == k2 {
				oracle[k1] = v + 1 // task 2 runs after task 1 in program order
			}
		case 1:
			err := thr.Atomic(
				func(tk *core.Task) { tr.Delete(tk, k1) },
				func(tk *core.Task) { tr.Delete(tk, k2) },
			)
			if err != nil {
				t.Fatal(err)
			}
			delete(oracle, k1)
			delete(oracle, k2)
		default:
			var g1, g2 uint64
			var ok1, ok2 bool
			err := thr.Atomic(
				func(tk *core.Task) { g1, ok1 = tr.Lookup(tk, k1) },
				func(tk *core.Task) { g2, ok2 = tr.Lookup(tk, k2) },
			)
			if err != nil {
				t.Fatal(err)
			}
			w1, e1 := oracle[k1]
			w2, e2 := oracle[k2]
			if ok1 != e1 || (ok1 && g1 != w1) {
				t.Fatalf("op %d: Lookup(%d) = %d,%v; want %d,%v", i, k1, g1, ok1, w1, e1)
			}
			if ok2 != e2 || (ok2 && g2 != w2) {
				t.Fatalf("op %d: Lookup(%d) = %d,%v; want %d,%v", i, k2, g2, ok2, w2, e2)
			}
		}
	}
	thr.Sync()
	if msg := tr.CheckInvariants(d); msg != "" {
		t.Fatal(msg)
	}
	if tr.Size(d) != len(oracle) {
		t.Fatalf("Size = %d, oracle %d", tr.Size(d), len(oracle))
	}
}

// Concurrent threads hammering disjoint key ranges of one tree under the
// baseline STM: the tree must stay valid.
func TestConcurrentDisjointRangesSTM(t *testing.T) {
	rt := stm.New()
	var tr Tree
	rt.Atomic(nil, func(tx *stm.Tx) { tr = New(tx) })

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := int64(w * 1000)
			for k := lo; k < lo+100; k++ {
				rt.Atomic(nil, func(tx *stm.Tx) { tr.Insert(tx, k, uint64(k)) })
			}
			for k := lo; k < lo+100; k += 2 {
				rt.Atomic(nil, func(tx *stm.Tx) { tr.Delete(tx, k) })
			}
		}(w)
	}
	wg.Wait()

	var msg string
	var size int
	rt.Atomic(nil, func(tx *stm.Tx) {
		msg = tr.CheckInvariants(tx)
		size = tr.Size(tx)
	})
	if msg != "" {
		t.Fatal(msg)
	}
	if size != workers*50 {
		t.Fatalf("Size = %d, want %d", size, workers*50)
	}
}

var _ tm.Tx = (*core.Task)(nil)

// A node task 1 allocates and links is visible to task 2 of the same
// transaction: Submit ships both tasks, so task 2 reaches task 1's fresh
// allocation only through intra-thread forwarding. Task 2 then unlinks
// it, so every transaction leaves the tree as it found it.
func TestFreshNodeForwardedToNextTask(t *testing.T) {
	rt := core.New(core.Config{SpecDepth: 2, LockTableBits: 14})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	tr := New(d)
	tr.Insert(d, -1, 0) // a root for the fresh nodes to hang from
	for k := int64(0); k < 30; k++ {
		var got uint64
		var found bool
		h, err := thr.Submit(
			func(tk *core.Task) { tr.Insert(tk, k, uint64(k)+7) },
			func(tk *core.Task) {
				got, found = tr.Lookup(tk, k)
				tr.Delete(tk, k)
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		h.Wait()
		if !found || got != uint64(k)+7 {
			t.Fatalf("tx %d: task 2 read %d,%v; want task 1's fresh node %d,true", k, got, found, k+7)
		}
	}
	thr.Sync()
	for k := int64(0); k < 30; k++ {
		if _, ok := tr.Lookup(d, k); ok {
			t.Fatalf("key %d left in the tree", k)
		}
	}
	if msg := tr.CheckInvariants(d); msg != "" {
		t.Fatal(msg)
	}
}
