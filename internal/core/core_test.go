package core

import (
	"runtime"
	"sync"
	"testing"

	"tlstm/internal/tm"
)

func newRT(depth int) *Runtime {
	return New(Config{SpecDepth: depth, LockTableBits: 16})
}

func TestSingleTaskTransaction(t *testing.T) {
	rt := newRT(1)
	thr := rt.NewThread()
	var a tm.Addr
	if err := thr.Atomic(func(tk *Task) {
		a = tk.Alloc(1)
		tk.Store(a, 7)
	}); err != nil {
		t.Fatal(err)
	}
	if err := thr.Atomic(func(tk *Task) {
		if tk.Load(a) != 7 {
			t.Error("committed value not visible")
		}
	}); err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	st := thr.Stats()
	if st.TxCommitted != 2 {
		t.Fatalf("TxCommitted = %d, want 2", st.TxCommitted)
	}
}

func TestArityValidation(t *testing.T) {
	rt := newRT(2)
	thr := rt.NewThread()
	if _, err := thr.Submit(); err == nil {
		t.Fatal("empty transaction must be rejected")
	}
	fn := func(tk *Task) {}
	if _, err := thr.Submit(fn, fn, fn); err == nil {
		t.Fatal("transaction larger than SPECDEPTH must be rejected")
	}
}

// Forwarding: a later task of the same transaction must observe the
// writes of past tasks (paper §2: intra-thread sequential semantics).
func TestTaskReadsPastTaskWrite(t *testing.T) {
	rt := newRT(2)
	thr := rt.NewThread()
	var a tm.Addr
	d := rt.Direct()
	a = d.Alloc(1)

	var got uint64
	err := thr.shipAtomic(
		func(tk *Task) { tk.Store(a, 42) },
		func(tk *Task) { got = tk.Load(a) },
	)
	if err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if got != 42 {
		t.Fatalf("future task read %d, want the past task's 42", got)
	}
	if d.Load(a) != 42 {
		t.Fatalf("memory = %d, want 42", d.Load(a))
	}
}

// WAW within a transaction: the last task in program order must win.
func TestIntraThreadWAWLastTaskWins(t *testing.T) {
	rt := newRT(3)
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)

	for i := 0; i < 20; i++ {
		err := thr.shipAtomic(
			func(tk *Task) { tk.Store(a, 1) },
			func(tk *Task) { tk.Store(a, 2) },
			func(tk *Task) { tk.Store(a, 3) },
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	thr.Sync()
	if got := d.Load(a); got != 3 {
		t.Fatalf("memory = %d, want 3 (program order)", got)
	}
}

// Read-modify-write chains across tasks of one transaction behave
// sequentially regardless of speculative interleaving.
func TestTaskChainIncrement(t *testing.T) {
	rt := newRT(4)
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)

	inc := func(tk *Task) { tk.Store(a, tk.Load(a)+1) }
	for i := 0; i < 25; i++ {
		if err := thr.shipAtomic(inc, inc, inc, inc); err != nil {
			t.Fatal(err)
		}
	}
	thr.Sync()
	if got := d.Load(a); got != 100 {
		t.Fatalf("counter = %d, want 100", got)
	}
}

// Cross-transaction speculation: with SpecDepth larger than transaction
// size, later transactions start while earlier ones are active; program
// order must still hold.
func TestCrossTransactionSpeculation(t *testing.T) {
	rt := newRT(4)
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)

	var handles []TxHandle
	for i := 0; i < 50; i++ {
		h, err := thr.Submit(func(tk *Task) { tk.Store(a, tk.Load(a)+1) })
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		h.Wait()
	}
	thr.Sync()
	if got := d.Load(a); got != 50 {
		t.Fatalf("counter = %d, want 50", got)
	}
	if st := thr.Stats(); st.TxCommitted != 50 {
		t.Fatalf("TxCommitted = %d, want 50", st.TxCommitted)
	}
}

// Multi-thread counter: inter-thread conflict handling must serialize
// read-modify-write transactions correctly.
func TestMultiThreadCounter(t *testing.T) {
	rt := newRT(2)
	d := rt.Direct()
	a := d.Alloc(1)

	const threads, per = 4, 100
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		thr := rt.NewThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				_ = thr.Atomic(func(tk *Task) { tk.Store(a, tk.Load(a)+1) })
			}
			thr.Sync()
		}()
	}
	wg.Wait()
	if got := d.Load(a); got != threads*per {
		t.Fatalf("counter = %d, want %d", got, threads*per)
	}
}

// Bank test: each transfer is one transaction of two tasks
// whose guard is evaluated identically: task 1 computes and withdraws,
// task 2 re-reads the flag word written by task 1 and deposits.
func TestBankInvariantWithFlagWord(t *testing.T) {
	rt := newRT(2)
	d := rt.Direct()
	const accounts = 16
	const initial = 1000
	base := d.Alloc(accounts)
	for i := 0; i < accounts; i++ {
		d.Store(base+tm.Addr(i), initial)
	}

	const threads, transfers = 3, 80
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		thr := rt.NewThread()
		scratch := d.Alloc(1)
		wg.Add(1)
		go func(seed uint64, scratch tm.Addr) {
			defer wg.Done()
			r := seed
			next := func() uint64 { r = r*6364136223846793005 + 1442695040888963407; return r >> 33 }
			for i := 0; i < transfers; i++ {
				from := tm.Addr(next() % accounts)
				to := tm.Addr(next() % accounts)
				amt := next() % 5
				_ = thr.shipAtomic(
					func(tk *Task) {
						f := tk.Load(base + from)
						if from != to && f >= amt {
							tk.Store(base+from, f-amt)
							tk.Store(scratch, amt)
						} else {
							tk.Store(scratch, 0)
						}
					},
					func(tk *Task) {
						a := tk.Load(scratch)
						if a != 0 {
							tk.Store(base+to, tk.Load(base+to)+a)
						}
					},
				)
			}
		}(uint64(w+1), scratch)
	}
	wg.Wait()

	var total uint64
	for i := 0; i < accounts; i++ {
		total += d.Load(base + tm.Addr(i))
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d", total, accounts*initial)
	}
}

// Opacity across threads with multi-task readers: x+y is kept constant
// by a writer thread; reader transactions split across two tasks must
// never observe a torn sum.
func TestSnapshotInvariantMultiTask(t *testing.T) {
	rt := newRT(2)
	d := rt.Direct()
	x := d.Alloc(1)
	y := d.Alloc(1)
	d.Store(x, 500)
	d.Store(y, 500)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		thr := rt.NewThread()
		for {
			select {
			case <-stop:
				thr.Sync()
				return
			default:
			}
			_ = thr.Atomic(func(tk *Task) {
				vx := tk.Load(x)
				vy := tk.Load(y)
				tk.Store(x, vx-1)
				tk.Store(y, vy+1)
			})
			// Leave scheduling windows between commits: a writer that
			// commits on every scheduler slice starves multi-task
			// readers on GOMAXPROCS=1 (their commit validation spans
			// several slices; real workloads have natural gaps).
			for i := 0; i < 200; i++ {
				runtime.Gosched()
			}
		}
	}()

	reader := rt.NewThread()
	violations := 0
	for i := 0; i < 300; i++ {
		var vx, vy uint64
		_ = reader.shipAtomic(
			func(tk *Task) { vx = tk.Load(x) },
			func(tk *Task) { vy = tk.Load(y) },
		)
		if vx+vy != 1000 {
			violations++
		}
	}
	reader.Sync()
	close(stop)
	wg.Wait()
	if violations != 0 {
		t.Fatalf("%d torn snapshots observed", violations)
	}
}

func TestAllocReclaimedOnTaskRollback(t *testing.T) {
	rt := newRT(2)
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)

	// Create intra-thread WAR conflicts so tasks roll back while holding
	// fresh allocations.
	for i := 0; i < 30; i++ {
		_ = thr.shipAtomic(
			func(tk *Task) { tk.Store(a, tk.Load(a)+1) },
			func(tk *Task) {
				blk := tk.Alloc(4)
				tk.Store(blk, tk.Load(a))
				tk.Free(blk)
			},
		)
	}
	thr.Sync()
	if live := rt.Allocator().LiveBlocks(); live != 1 {
		t.Fatalf("LiveBlocks = %d, want 1 (only the setup block)", live)
	}
}

func TestStatsAccumulate(t *testing.T) {
	rt := newRT(3)
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	for i := 0; i < 10; i++ {
		_ = thr.Atomic(
			func(tk *Task) { tk.Load(a) },
			func(tk *Task) { tk.Store(a, 1) },
			func(tk *Task) { tk.Load(a) },
		)
	}
	thr.Sync()
	st := thr.Stats()
	if st.TxCommitted != 10 {
		t.Fatalf("TxCommitted = %d, want 10", st.TxCommitted)
	}
	if st.Work == 0 || st.VirtualTime == 0 {
		t.Fatal("work/virtual-time not accumulated")
	}
	if st.VirtualTime > st.Work+10*3*commitCost {
		t.Fatalf("virtual time %d should not exceed serial work %d plus commit costs", st.VirtualTime, st.Work)
	}
}
