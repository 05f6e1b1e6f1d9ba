package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"tlstm/internal/sched"
	"tlstm/internal/tm"
)

// Integration tests for the scheduler: worker lifecycle, descriptor
// recycling under aborts, and the Inline policy's semantics. The
// head-on-caller dispatch itself is covered in headcaller_test.go.

func TestRuntimeCloseDrainsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	rt := New(Config{SpecDepth: 3})
	thrs := make([]*Thread, 2)
	d := rt.Direct()
	a := d.Alloc(1)
	var wg sync.WaitGroup
	for i := range thrs {
		thrs[i] = rt.NewThread()
		wg.Add(1)
		go func(thr *Thread) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = thr.Atomic(
					func(tk *Task) { tk.Store(a, tk.Load(a)+1) },
					func(tk *Task) { tk.Store(a, tk.Load(a)+1) },
				)
			}
			thr.Sync()
		}(thrs[i])
	}
	wg.Wait()
	rt.Close()
	rt.Close() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked after Close: %d > %d", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
	if got := d.Load(a); got != 2*50*2 {
		t.Fatalf("counter = %d, want %d", got, 2*50*2)
	}
}

func TestSchedulerCountersAccumulate(t *testing.T) {
	rt := New(Config{SpecDepth: 2})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	const txs = 25
	for i := 0; i < txs; i++ {
		_ = thr.Atomic(
			func(tk *Task) { tk.Store(a, tk.Load(a)+1) },
			func(tk *Task) { tk.Store(a, tk.Load(a)+1) },
		)
	}
	thr.Sync()
	st := thr.Stats()
	// Heads run on this goroutine, so only the tails own workers: at
	// least one, never more than the ring, each spawned once.
	if st.WorkersSpawned < 1 || st.WorkersSpawned >= uint64(rt.SpecDepth()) {
		t.Fatalf("WorkersSpawned = %d, want in [1, %d) (tail slots only, spawned once)", st.WorkersSpawned, rt.SpecDepth())
	}
	// Every submission past the first recycles one txState; every task
	// past the first ring-full recycles one descriptor: 2·txs tasks on a
	// 2-slot ring → 2·txs−2 task reuses, plus txs−2 txState reuses.
	wantReuses := uint64(2*txs-2) + uint64(txs-2)
	if st.DescriptorReuses != wantReuses {
		t.Fatalf("DescriptorReuses = %d, want %d", st.DescriptorReuses, wantReuses)
	}
	// Counters must survive the shard merge plumbing.
	if agg := rt.Stats(); agg.WorkersSpawned != st.WorkersSpawned || agg.DescriptorReuses != st.DescriptorReuses {
		t.Fatalf("aggregate lost scheduler counters: %+v vs %+v", agg, st)
	}
}

func TestInlinePolicySerialEquivalence(t *testing.T) {
	rt := New(Config{SpecDepth: 1, Policy: sched.Inline})
	defer rt.Close()
	if rt.Policy() != sched.Inline {
		t.Fatal("Policy accessor")
	}
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	for i := 0; i < 50; i++ {
		h, err := thr.Submit(func(tk *Task) { tk.Store(a, tk.Load(a)+1) })
		if err != nil {
			t.Fatal(err)
		}
		if thr.txDone.Seq() < h.commit {
			t.Fatal("Submit under Inline returned before the commit")
		}
		h.Wait()
	}
	thr.Sync()
	if d.Load(a) != 50 {
		t.Fatalf("counter = %d, want 50", d.Load(a))
	}
	if st := thr.Stats(); st.TxCommitted != 50 || st.WorkersSpawned != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Inline still participates in inter-thread contention management:
// conflicting threads — one inline, one pooled — must both make
// progress and preserve atomicity.
func TestInlinePolicyInterThreadConflicts(t *testing.T) {
	rt := New(Config{SpecDepth: 1, Policy: sched.Inline})
	defer rt.Close()
	d := rt.Direct()
	a := d.Alloc(1)
	var wg sync.WaitGroup
	const threads, txs = 3, 60
	for w := 0; w < threads; w++ {
		thr := rt.NewThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txs; i++ {
				_ = thr.Atomic(func(tk *Task) { tk.Store(a, tk.Load(a)+1) })
			}
			thr.Sync()
		}()
	}
	wg.Wait()
	if got := d.Load(a); got != threads*txs {
		t.Fatalf("counter = %d, want %d", got, threads*txs)
	}
}

// Inline is no longer tied to SpecDepth 1: every Submit behaves like
// Atomic — head here, tail on workers, committed on return.
func TestInlinePolicyDeeperRings(t *testing.T) {
	rt := New(Config{SpecDepth: 3, Policy: sched.Inline})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	inc := func(tk *Task) { tk.Store(a, tk.Load(a)+1) }
	for i := 0; i < 40; i++ {
		h, err := thr.Submit(inc, inc)
		if err != nil {
			t.Fatal(err)
		}
		if thr.txDone.Seq() < h.commit {
			t.Fatal("Submit under Inline returned before the commit")
		}
	}
	thr.Sync()
	if got := d.Load(a); got != 80 {
		t.Fatalf("counter = %d, want 80", got)
	}
	if st := thr.Stats(); st.WorkersSpawned < 1 || st.WorkersSpawned > 3 {
		t.Fatalf("WorkersSpawned = %d, want in [1, 3]", st.WorkersSpawned)
	}
}

// Handles stay valid across descriptor recycling: waiting on an old
// transaction's handle after its descriptors were reused many times
// over must return immediately rather than hang or mis-wait (serials,
// not descriptor identity, are the wait tokens).
func TestHandleOutlivesDescriptorRecycling(t *testing.T) {
	rt := New(Config{SpecDepth: 2})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	first, err := thr.Submit(func(tk *Task) { tk.Store(a, 1) })
	if err != nil {
		t.Fatal(err)
	}
	var handles []TxHandle
	for i := 0; i < 40; i++ {
		h, err := thr.Submit(func(tk *Task) { tk.Store(a, tk.Load(a)+1) })
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Wait in submission order, then re-wait the first handle: both its
	// descriptor and its txState have been recycled ~20 times by now.
	for _, h := range handles {
		h.Wait()
	}
	first.Wait()
	first.Wait() // idempotent
	thr.Sync()
	if got := d.Load(a); got != 41 {
		t.Fatalf("counter = %d, want 41", got)
	}
}

// Descriptor recycling under transaction aborts: force inter-thread
// commit-validation aborts while the pipeline stays full, so recycled
// descriptors constantly re-enter the abort rendezvous machinery.
func TestRecyclingSurvivesAbortStorm(t *testing.T) {
	rt := New(Config{SpecDepth: 3, LockTableBits: 4})
	defer rt.Close()
	d := rt.Direct()
	const words = 8
	base := d.Alloc(words)
	var wg sync.WaitGroup
	const threads, txs = 3, 80
	for w := 0; w < threads; w++ {
		thr := rt.NewThread()
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			s := seed
			next := func() uint64 { s = s*6364136223846793005 + 1; return s >> 33 }
			for i := 0; i < txs; i++ {
				x := base + tm.Addr(next()%words)
				y := base + tm.Addr(next()%words)
				_ = thr.Atomic(
					func(tk *Task) { tk.Store(x, tk.Load(x)+1) },
					func(tk *Task) { _ = tk.Load(y) },
					func(tk *Task) { tk.Store(y, tk.Load(y)+1) },
				)
			}
			thr.Sync()
		}(uint64(w + 1))
	}
	wg.Wait()
	var sum uint64
	for i := 0; i < words; i++ {
		sum += d.Load(base + tm.Addr(i))
	}
	if sum != threads*txs*2 {
		t.Fatalf("sum = %d, want %d (each tx adds exactly 2)", sum, threads*txs*2)
	}
}

// Spurious abort-transaction signals — the price of recycled owner
// headers (a stale cross-thread reader re-pointed onto a live tx) —
// must never wedge a thread. In particular a signal landing after the
// commit-task's final validation once parked the intermediate tasks in
// an abort rendezvous that could never complete; rendezvousMayCommit's
// committed-escape is the fix under test. The adversary sprays the
// abort flags of every transaction descriptor in pulses while real
// transactions stream underneath.
func TestSpuriousAbortSignalsNeverWedge(t *testing.T) {
	rt := newRT(2)
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tx := range thr.txRing {
				tx.abortTx.Store(true)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const txs = 150
	for i := 0; i < txs; i++ {
		_ = thr.Atomic(
			func(tk *Task) { tk.Store(a, tk.Load(a)+1) },
			func(tk *Task) { tk.Store(a, tk.Load(a)+1) },
		)
	}
	close(stop)
	wg.Wait()
	thr.Sync()
	if got := d.Load(a); got != txs*2 {
		t.Fatalf("counter = %d, want %d", got, txs*2)
	}
}
