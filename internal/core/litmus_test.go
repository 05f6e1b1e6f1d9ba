package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tlstm/internal/tm"
)

// Memory-model litmus tests for the thread's two completion counters.
//
// finishCommit stores completedTask (the commit task's serial) strictly
// before it publishes the committed-transaction frontier (txDone), and
// entry reclamation leans on exactly that order: a reuse gated on the
// frontier may assume every task of the covered transaction has fully
// completed. The litmus pins the ordering as an observable contract —
// an observer that reads the frontier first and completedTask second
// must never see the frontier ahead — instead of leaving it implicit
// in finishCommit's statement order.
//
// The contract only holds on abort-free runs: a transaction abort
// deliberately lowers completedTask below already-published frontiers
// of *earlier* transactions' serials it replays (see lowerCounter in
// abort.go). The workload is therefore a single thread running
// conflict-free transactions — no other thread exists to feed the
// contention manager, so no transaction ever aborts (asserted at the
// end, keeping the litmus honest about its own precondition).
func TestLitmusFrontierOrdersCompletedTask(t *testing.T) {
	const (
		depth = 3
		txs   = 4000
	)
	rt := New(Config{SpecDepth: depth, LockTableBits: 10})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	base := d.Alloc(depth)

	stop := make(chan struct{})
	var violations atomic.Int64
	var observed atomic.Int64 // highest frontier the observer ever saw
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
			// Load order is the contract: frontier first, counter
			// second. Both are sequentially consistent atomics, so
			// observing frontier f proves the Store(completedTask=f)
			// that preceded Publish(f) — and completedTask only grows
			// on an abort-free run.
			f := thr.txDone.Seq()
			c := thr.completedTask.Load()
			if c < f {
				violations.Add(1)
			}
			if f > observed.Load() {
				observed.Store(f)
			}
			// Yield unconditionally: on a single-CPU box a spinning
			// observer would otherwise starve the workers it watches.
			runtime.Gosched()
		}
	}()

	fns := make([]TaskFunc, depth)
	for j := 0; j < depth; j++ {
		addr := base + tm.Addr(j)
		fns[j] = func(tk *Task) { tk.Store(addr, tk.Load(addr)+1) }
	}
	for i := 0; i < txs; i++ {
		if err := thr.shipAtomic(fns...); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if got := thr.stats.TxAborted; got != 0 {
		t.Fatalf("litmus precondition broken: %d transaction aborts on a conflict-free single-thread run", got)
	}
	if n := violations.Load(); n != 0 {
		t.Fatalf("observer saw the frontier ahead of completedTask %d times", n)
	}
	if observed.Load() == 0 {
		t.Fatalf("observer never saw the frontier advance; litmus is vacuous")
	}
	for j := 0; j < depth; j++ {
		if got := d.Load(base + tm.Addr(j)); got != txs {
			t.Fatalf("word %d: got %d, want %d", j, got, txs)
		}
	}
}
