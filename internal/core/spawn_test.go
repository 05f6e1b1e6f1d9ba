package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"tlstm/internal/mode"
	"tlstm/internal/tm"
	"tlstm/internal/txtrace"
)

// Tests for Atomic's spawn decision: a multi-task transaction ships its
// tail only while the thread's average overlap (shipOverlap) says a
// hand-off pays; otherwise it runs fused, its bodies in program order as
// one caller-run task.

// shipAtomic is Atomic with the spawn decision pinned to ship, for tests
// whose point is intra-thread speculation: their bodies are tiny, and
// left alone the thread would fuse them. The pin is far enough above the
// threshold that the few commits a concurrent pipeline can fold between
// two pins never bring the average down to it.
func (thr *Thread) shipAtomic(fns ...TaskFunc) error {
	thr.overlap.Store(1 << 62)
	return thr.Atomic(fns...)
}

// shipAtomicRO is shipAtomic for a declared read-only transaction.
func (thr *Thread) shipAtomicRO(fns ...TaskFunc) error {
	thr.overlap.Store(1 << 62)
	return thr.AtomicRO(fns...)
}

// A stream of tiny two-task transactions ships the first (a thread starts
// in the ship state) and runs every later one fused on the caller; two
// contending threads still end where the sequential model says.
func TestSpawnTinyTransactionsFuse(t *testing.T) {
	rec := txtrace.NewRecorder(1 << 16)
	rt := New(Config{SpecDepth: 2, LockTableBits: 12, Trace: rec})
	d := rt.Direct()
	shared := d.Alloc(1)
	const threads, txs = 2, 200
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		thr := rt.NewThread()
		own := d.Alloc(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			me := goid()
			var model uint64
			for i := 0; i < txs; i++ {
				var tailOn string
				if err := thr.Atomic(
					func(tk *Task) {
						tk.Store(shared, tk.Load(shared)+1)
						tk.Store(own, tk.Load(own)*3+1)
					},
					func(tk *Task) {
						tailOn = goid()
						tk.Store(shared, tk.Load(shared)+2)
						tk.Store(own, tk.Load(own)*3+2)
					},
				); err != nil {
					t.Error(err)
					return
				}
				model = (model*3+1)*3 + 2
				if fused := tailOn == me; fused != (i > 0) {
					t.Errorf("tx %d: tail on the caller = %v, want %v", i, fused, i > 0)
				}
			}
			thr.Sync()
			if got := d.Load(own); got != model {
				t.Errorf("private word = %d, want %d (program order)", got, model)
			}
			if st := thr.Stats(); st.TxFused != txs-1 || st.TxCommitted != txs {
				t.Errorf("TxFused = %d of %d commits, want %d", st.TxFused, st.TxCommitted, txs-1)
			}
		}()
	}
	wg.Wait()
	rt.Close()
	if got := d.Load(shared); got != threads*txs*3 {
		t.Fatalf("shared = %d, want %d", got, threads*txs*3)
	}
	checkDump(t, rec)
}

// sumTask is a task body that sums n words from base: an overlap of n
// entries per task, far above shipOverlap for rbtree-sized n.
func sumTask(base tm.Addr, n int, out *uint64) TaskFunc {
	return func(tk *Task) { *out = tm.SumWords(tk, base, n) }
}

// spawnRun runs one two-task transaction and reports whether its tail ran
// on the caller (fused).
func spawnRun(t *testing.T, thr *Thread, head, tail TaskFunc) bool {
	t.Helper()
	me := goid()
	var tailOn string
	if err := thr.Atomic(head, func(tk *Task) { tailOn = goid(); tail(tk) }); err != nil {
		t.Fatal(err)
	}
	return tailOn == me
}

// Transactions whose tasks are as long as rbtree_read's (16 lookups, some
// 430 committed reads each) ship from the first one on.
func TestSpawnLargeBodiesShip(t *testing.T) {
	rec := txtrace.NewRecorder(1 << 16)
	rt := New(Config{SpecDepth: 2, LockTableBits: 12, Trace: rec})
	thr := rt.NewThread()
	const n = 432
	base := rt.Direct().Alloc(2 * n)
	var x, y uint64
	for i := 0; i < 20; i++ {
		if spawnRun(t, thr, sumTask(base, n, &x), sumTask(base+n, n, &y)) {
			t.Fatalf("tx %d ran fused", i)
		}
	}
	thr.Sync()
	rt.Close()
	if st := thr.Stats(); st.TxFused != 0 || st.WorkersSpawned == 0 {
		t.Fatalf("TxFused = %d, WorkersSpawned = %d; want 0 and a worker", st.TxFused, st.WorkersSpawned)
	}
	checkDump(t, rec)
}

// The decision follows the workload: tiny → large goes back to shipping
// within a few transactions, large → tiny fuses again within a few more.
func TestSpawnDecisionFollowsTheWorkload(t *testing.T) {
	rec := txtrace.NewRecorder(1 << 16)
	rt := New(Config{SpecDepth: 2, LockTableBits: 12, Trace: rec})
	thr := rt.NewThread()
	d := rt.Direct()
	const n = 432
	base := d.Alloc(2 * n)
	a := d.Alloc(1)
	var x, y uint64
	tiny := func(tk *Task) { tk.Store(a, tk.Load(a)+1) }
	large := func() bool { return spawnRun(t, thr, sumTask(base, n, &x), sumTask(base+n, n, &y)) }
	smalls := 0
	small := func() bool { smalls++; return spawnRun(t, thr, tiny, tiny) }
	// until runs step until it reports want, and returns how many it took.
	until := func(want bool, step func() bool) int {
		for k := 1; k <= 64; k++ {
			if step() == want {
				return k
			}
		}
		t.Fatalf("the decision never became fused=%v", want)
		return 0
	}

	for i := 0; i < 40; i++ {
		small()
	}
	if !small() {
		t.Fatal("a warmed tiny stream still ships")
	}
	if k := until(false, large); k > 4 {
		t.Fatalf("tiny → large took %d transactions to ship, want ≤ 4", k)
	}
	for i := 0; i < 40; i++ {
		if large() {
			t.Fatal("a warmed large stream ran fused")
		}
	}
	if k := until(true, small); k > 16 {
		t.Fatalf("large → tiny took %d transactions to fuse, want ≤ 16", k)
	}
	thr.Sync()
	rt.Close()
	if got := d.Load(a); got != uint64(2*smalls) {
		t.Fatalf("counter = %d after %d tiny transactions, want %d", got, smalls, 2*smalls)
	}
	checkDump(t, rec)
}

// warmFused drives thr into the fused state with tiny two-task
// transactions on a scratch word.
func warmFused(t *testing.T, thr *Thread, scratch tm.Addr) {
	t.Helper()
	inc := func(tk *Task) { tk.Store(scratch, tk.Load(scratch)+1) }
	for i := 0; i < 4; i++ {
		if err := thr.Atomic(inc, inc); err != nil {
			t.Fatal(err)
		}
	}
	if thr.overlap.Load() >= shipOverlap {
		t.Fatal("tiny transactions did not bring the thread to the fused state")
	}
}

// A genuine panic in a fused transaction's later body behaves as in a
// one-task Atomic: it reaches the caller with its value, the transaction
// leaves no effect, the thread runs on, and Close returns.
func TestFusedPanicSurfacesAndThreadRunsOn(t *testing.T) {
	for _, fused := range []bool{false, true} {
		rt := newRT(2)
		thr := rt.NewThread()
		d := rt.Direct()
		a, scratch := d.Alloc(1), d.Alloc(1)
		fns := []TaskFunc{func(tk *Task) { tk.Store(a, 1); panic("boom") }}
		if fused {
			warmFused(t, thr, scratch)
			fns = []TaskFunc{func(tk *Task) { tk.Store(a, 1) }, func(*Task) { panic("boom") }}
		}
		var got any
		func() {
			defer func() { got = recover() }()
			_ = thr.Atomic(fns...)
		}()
		if got != "boom" {
			t.Fatalf("fused=%v: recovered %v, want the body's panic value", fused, got)
		}
		if d.Load(a) != 0 {
			t.Fatalf("fused=%v: the panicked transaction left an effect", fused)
		}
		closed := make(chan error, 1)
		go func() {
			err := thr.Atomic(func(tk *Task) { tk.Store(a, tk.Load(a)+5) })
			thr.Sync()
			rt.Close()
			closed <- err
		}()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("fused=%v: the thread is wedged after a caller-run panic", fused)
		}
		if d.Load(a) != 5 {
			t.Fatalf("fused=%v: a = %d after the next transaction, want 5", fused, d.Load(a))
		}
	}
}

// waitRetryParked blocks until some goroutine is parked in a Retry.
func waitRetryParked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("txrt.(*Desc).parkRetry")) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("the consumer never parked in Retry")
}

// Retry in a fused multi-body transaction parks — the transaction is one
// task — and a producer's commit wakes it, under the speculative and the
// serialized rung alike.
func TestFusedRetryParks(t *testing.T) {
	for _, pol := range []mode.Policy{mode.Speculative, mode.Serial} {
		rt := New(Config{SpecDepth: 2, LockTableBits: 12, Mode: mode.Config{Policy: pol}})
		d := rt.Direct()
		cell, out, scratch := d.Alloc(1), d.Alloc(1), d.Alloc(1)
		consumer, producer := rt.NewThread(), rt.NewThread()
		warmFused(t, consumer, scratch)
		consumer.Sync()
		before := consumer.Stats()

		done := make(chan error, 1)
		go func() {
			done <- consumer.Atomic(
				func(tk *Task) { tk.Store(scratch, tk.Load(scratch)+1) },
				func(tk *Task) {
					v := tk.Load(cell)
					if v == 0 {
						tk.Retry()
					}
					tk.Store(out, v)
				},
			)
		}()
		waitRetryParked(t)
		if err := producer.Atomic(func(tk *Task) { tk.Store(cell, 42) }); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("mode %v: fused consumer never woke from its Retry park", pol)
		}
		consumer.Sync()
		producer.Sync()
		rt.Close()
		st := consumer.Stats().Minus(before)
		if d.Load(out) != 42 || st.RetryWakes != 1 || st.TxFused != 1 || st.WorkersSpawned != 0 {
			t.Fatalf("mode %v: out=%d RetryWakes=%d TxFused=%d workers=%d, want 42/1/1/0",
				pol, d.Load(out), st.RetryWakes, st.TxFused, st.WorkersSpawned)
		}
	}
}
