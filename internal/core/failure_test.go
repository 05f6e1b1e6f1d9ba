package core

import (
	"strings"
	"sync"
	"testing"

	"tlstm/internal/tm"
)

// A panic raised while the task's reads were consistent is a genuine
// bug and must propagate out of Atomic's goroutine — which crashes the
// process; we verify the inverse here instead: a panic raised while the
// speculative state was inconsistent must be swallowed and the task
// re-executed (inconsistent-read sandboxing, §3.2).
func TestSandboxRestartsInconsistentPanic(t *testing.T) {
	rt := newRT(2)
	thr := rt.NewThread()
	d := rt.Direct()
	ptr := d.Alloc(1) // holds a word-encoded pointer
	tgt := d.Alloc(1) // the pointee
	bad := tm.Addr(0) // dereferencing nil panics in the word store
	d.Store(ptr, uint64(tgt))
	_ = bad

	// Task 1 swings the pointer to nil and back; task 2 dereferences
	// whatever it reads. If task 2 observes the intermediate nil it
	// panics exactly like the paper's NULL-pointer example; the runtime
	// must convert that into a restart, and the committed execution
	// must be consistent.
	for i := 0; i < 40; i++ {
		err := thr.Atomic(
			func(tk *Task) {
				tk.Store(ptr, uint64(tm.NilAddr))
				tk.Store(ptr, uint64(tgt))
				tk.Store(tgt, uint64(i))
			},
			func(tk *Task) {
				p := tm.LoadAddr(tk, ptr)
				if p == tm.NilAddr {
					panic("nil dereference on speculative state")
				}
				_ = tk.Load(p)
			},
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	thr.Sync()
}

// A panic in a consistent state must propagate (it is a real bug, not a
// speculation artifact). Run the task on a throwaway goroutine-confined
// runtime and catch the crash via recover inside the task's own
// goroutine is impossible — so we assert the documented contract at the
// attempt level through the exported behaviour: a consistent panic
// never commits and never silently retries forever. We approximate by
// checking that the panicking transaction does not commit.
func TestConsistentPanicDoesNotCommitSilently(t *testing.T) {
	// The crash takes down the process if unhandled, so we only verify
	// the sandbox *check* logic directly: with no conflicting state, a
	// task's consistent() must be true right after begin.
	rt := newRT(1)
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	ok := false
	err := thr.Atomic(func(tk *Task) {
		tk.Load(a)
		ok = tk.consistent()
	})
	if err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if !ok {
		t.Fatal("freshly begun task with untouched state must be consistent")
	}
}

// Lock-pair collisions (tiny table) must only cause false conflicts,
// never wrong results.
func TestCollisionsPreserveCorrectness(t *testing.T) {
	rt := New(Config{SpecDepth: 2, LockTableBits: 4}) // 16 pairs only
	d := rt.Direct()
	const words = 256
	base := d.Alloc(words)

	const threads, txs = 3, 40
	var wg sync.WaitGroup
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

// An aborting earlier transaction must drag down later speculative
// transactions of the same thread that read its state: final memory is
// as if everything ran serially.
func TestCrossTxSpeculationSurvivesAborts(t *testing.T) {
	rt := newRT(4)
	d := rt.Direct()
	shared := d.Alloc(1) // contended across threads
	chainA := d.Alloc(1) // thread A private chain

	var wg sync.WaitGroup
	// Thread B hammers `shared` to force thread A's transactions to
	// abort at commit validation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		thr := rt.NewThread()
		for i := 0; i < 150; i++ {
			_ = thr.Atomic(func(tk *Task) { tk.Store(shared, tk.Load(shared)+1) })
		}
		thr.Sync()
	}()

	thrA := rt.NewThread()
	for i := 0; i < 150; i++ {
		// tx1 reads shared and writes chainA; tx2 (speculated ahead)
		// reads chainA.
		h1, err := thrA.Submit(func(tk *Task) {
			v := tk.Load(shared)
			tk.Store(chainA, tk.Load(chainA)+v-v+1)
		})
		if err != nil {
			t.Fatal(err)
		}
		h2, err := thrA.Submit(func(tk *Task) {
			tk.Store(chainA, tk.Load(chainA)+1)
		})
		if err != nil {
			t.Fatal(err)
		}
		h1.Wait()
		h2.Wait()
	}
	thrA.Sync()
	wg.Wait()

	if got := d.Load(chainA); got != 300 {
		t.Fatalf("chainA = %d, want 300 (two increments per round)", got)
	}
	if got := d.Load(shared); got != 150 {
		t.Fatalf("shared = %d, want 150", got)
	}
}

// Long transactions must not starve behind streams of small ones: the
// greedy timestamp persists across retries, so the long transaction
// eventually wins every conflict.
func TestLongTransactionEventuallyWins(t *testing.T) {
	rt := newRT(2)
	d := rt.Direct()
	const words = 32
	base := d.Alloc(words)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // stream of small writers
		defer wg.Done()
		thr := rt.NewThread()
		i := uint64(0)
		for {
			select {
			case <-stop:
				thr.Sync()
				return
			default:
			}
			i++
			a := base + tm.Addr(i%words)
			_ = thr.Atomic(func(tk *Task) { tk.Store(a, tk.Load(a)+1) })
		}
	}()

	// One long transaction touching every word.
	thr := rt.NewThread()
	done := make(chan struct{})
	go func() {
		_ = thr.Atomic(func(tk *Task) {
			for i := 0; i < words; i++ {
				a := base + tm.Addr(i)
				tk.Store(a, tk.Load(a)+1000)
			}
		})
		thr.Sync()
		close(done)
	}()
	<-done
	close(stop)
	wg.Wait()

	var big int
	for i := 0; i < words; i++ {
		if d.Load(base+tm.Addr(i)) >= 1000 {
			big++
		}
	}
	if big != words {
		t.Fatalf("long transaction updated %d/%d words", big, words)
	}
}

// Deferred frees from every task of a transaction apply exactly once.
func TestTaskFreesApplyAtCommit(t *testing.T) {
	rt := newRT(2)
	thr := rt.NewThread()
	d := rt.Direct()
	blocks := []tm.Addr{d.Alloc(4), d.Alloc(4)}
	live := rt.Allocator().LiveBlocks()

	err := thr.Atomic(
		func(tk *Task) { tk.Free(blocks[0]) },
		func(tk *Task) { tk.Free(blocks[1]) },
	)
	if err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if got := rt.Allocator().LiveBlocks(); got != live-2 {
		t.Fatalf("LiveBlocks = %d, want %d", got, live-2)
	}
}

// The arity error message must be actionable.
func TestArityErrorMessage(t *testing.T) {
	rt := newRT(2)
	thr := rt.NewThread()
	fn := func(tk *Task) {}
	_, err := thr.Submit(fn, fn, fn)
	if err == nil || !strings.Contains(err.Error(), "SPECDEPTH") {
		t.Fatalf("unhelpful arity error: %v", err)
	}
}

// SPECDEPTH=1 must degenerate to strictly serial task execution while
// still supporting multi-transaction pipelines.
func TestDepthOneSerialEquivalence(t *testing.T) {
	rt := newRT(1)
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	for i := 0; i < 50; i++ {
		if err := thr.Atomic(func(tk *Task) { tk.Store(a, tk.Load(a)+1) }); err != nil {
			t.Fatal(err)
		}
	}
	thr.Sync()
	if d.Load(a) != 50 {
		t.Fatalf("counter = %d, want 50", d.Load(a))
	}
}

// Stats must reflect aborts under inter-thread contention. The conflict
// is directed, not left to timing: the victim reads the counter, waits
// inside its first attempt until the other thread has committed an
// increment, and only then writes — its read is stale by construction,
// so that attempt must roll back and be counted.
func TestStatsCountAborts(t *testing.T) {
	rt := newRT(2)
	defer rt.Close()
	d := rt.Direct()
	a := d.Alloc(1)
	victim, other := rt.NewThread(), rt.NewThread()
	inc := func(tk *Task) { tk.Store(a, tk.Load(a)+1) }

	read, committed := make(chan struct{}), make(chan struct{})
	go func() {
		<-read
		_ = other.Atomic(inc, inc)
		other.Sync()
		close(committed)
	}()
	// One task, so the victim holds no lock while it waits (a sibling's
	// write lock would stall the other thread behind a body that cannot
	// see abort signals).
	first := true
	_ = victim.Atomic(func(tk *Task) {
		v := tk.Load(a)
		if first {
			first = false
			close(read)
			<-committed
		}
		tk.Store(a, v+1)
	})
	victim.Sync()

	if got := d.Load(a); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	var total Stats
	total.Add(victim.Stats())
	total.Add(other.Stats())
	if total.TxCommitted != 2 {
		t.Fatalf("TxCommitted = %d, want 2", total.TxCommitted)
	}
	if vs := victim.Stats(); vs.TxAborted == 0 && vs.TaskRestarts == 0 {
		t.Fatalf("the victim's stale attempt was not counted: %+v", vs)
	}
}
