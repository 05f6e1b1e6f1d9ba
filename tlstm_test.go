package tlstm_test

import (
	"sync"
	"testing"

	"tlstm"
)

// The facade must expose a complete, working surface: this exercises
// the documented quick-start plus every re-exported structure.
func TestQuickStartCompiles(t *testing.T) {
	rt := tlstm.New(tlstm.Config{SpecDepth: 3})
	d := rt.Direct()
	counter := d.Alloc(1)

	thr := rt.NewThread()
	err := thr.Atomic(
		func(tk *tlstm.Task) { tk.Store(counter, tk.Load(counter)+1) },
		func(tk *tlstm.Task) { tk.Store(counter, tk.Load(counter)+1) },
	)
	if err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if d.Load(counter) != 2 {
		t.Fatalf("counter = %d, want 2", d.Load(counter))
	}
}

func TestBaselineFacade(t *testing.T) {
	rt := tlstm.NewBaseline()
	var a tlstm.Addr
	rt.Atomic(nil, func(tx *tlstm.BaselineTx) {
		a = tx.Alloc(1)
		tlstm.StoreInt64(tx, a, -5)
	})
	rt.Atomic(nil, func(tx *tlstm.BaselineTx) {
		if tlstm.LoadInt64(tx, a) != -5 {
			t.Error("int64 round trip failed")
		}
	})
}

func TestCMFacade(t *testing.T) {
	for _, name := range []string{"suicide", "backoff", "greedy", "karma", "taskaware"} {
		pol, err := tlstm.NewCM(name)
		if err != nil {
			t.Fatalf("NewCM(%q): %v", name, err)
		}
		if pol == nil || pol.Name() != name {
			t.Fatalf("NewCM(%q) = %v", name, pol)
		}
	}
	if pol, err := tlstm.NewCM("default"); err != nil || pol != nil {
		t.Fatalf("NewCM(default) = (%v, %v), want (nil, nil)", pol, err)
	}
	if _, err := tlstm.NewCM("bogus"); err == nil {
		t.Fatal("NewCM must reject unknown policies")
	}

	// A runtime built on a named policy works end to end: baseline on
	// karma, TLSTM on backoff via Config.CM.
	karma, _ := tlstm.NewCM("karma")
	base := tlstm.NewBaselineWithCM(karma)
	var a tlstm.Addr
	base.Atomic(nil, func(tx *tlstm.BaselineTx) {
		a = tx.Alloc(1)
		tx.Store(a, 7)
	})
	if base.LoadWordRaw(a) != 7 {
		t.Fatal("karma baseline round trip failed")
	}

	backoff, _ := tlstm.NewCM("backoff")
	rt := tlstm.New(tlstm.Config{SpecDepth: 2, CM: backoff})
	defer rt.Close()
	d := rt.Direct()
	c := d.Alloc(1)
	thr := rt.NewThread()
	if err := thr.Atomic(
		func(tk *tlstm.Task) { tk.Store(c, tk.Load(c)+1) },
		func(tk *tlstm.Task) { tk.Store(c, tk.Load(c)+1) },
	); err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if d.Load(c) != 2 {
		t.Fatalf("counter = %d, want 2", d.Load(c))
	}
}

func TestDataStructuresOnBothRuntimes(t *testing.T) {
	// TLSTM side.
	rt := tlstm.New(tlstm.Config{SpecDepth: 2})
	d := rt.Direct()
	tree := tlstm.NewRBTree(d)
	list := tlstm.NewList(d)
	hmap := tlstm.NewHashMap(d, 8)

	thr := rt.NewThread()
	err := thr.Atomic(
		func(tk *tlstm.Task) {
			tree.Insert(tk, 1, 10)
			list.Insert(tk, 2, 20)
		},
		func(tk *tlstm.Task) {
			hmap.Insert(tk, 3, 30)
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if v, ok := tree.Lookup(d, 1); !ok || v != 10 {
		t.Fatal("tree value lost")
	}
	if v, ok := list.Lookup(d, 2); !ok || v != 20 {
		t.Fatal("list value lost")
	}
	if v, ok := hmap.Lookup(d, 3); !ok || v != 30 {
		t.Fatal("map value lost")
	}

	// Baseline side, same structures.
	bl := tlstm.NewBaseline()
	bd := bl.Direct()
	tr2 := tlstm.NewRBTree(bd)
	bl.Atomic(nil, func(tx *tlstm.BaselineTx) { tr2.Insert(tx, 7, 70) })
	if v, ok := tr2.Lookup(bd, 7); !ok || v != 70 {
		t.Fatal("baseline tree value lost")
	}
}

func TestSubmitPipeline(t *testing.T) {
	rt := tlstm.New(tlstm.Config{SpecDepth: 4})
	d := rt.Direct()
	a := d.Alloc(1)
	thr := rt.NewThread()
	var hs []tlstm.TxHandle
	for i := 0; i < 20; i++ {
		h, err := thr.Submit(func(tk *tlstm.Task) { tk.Store(a, tk.Load(a)+1) })
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		h.Wait()
	}
	thr.Sync()
	if d.Load(a) != 20 {
		t.Fatalf("counter = %d, want 20", d.Load(a))
	}
	st := thr.Stats()
	if st.TxCommitted != 20 {
		t.Fatalf("TxCommitted = %d", st.TxCommitted)
	}
}

func TestSpecDOALLViaFacade(t *testing.T) {
	rt := tlstm.New(tlstm.Config{SpecDepth: 4})
	d := rt.Direct()
	const n = 32
	base := d.Alloc(n)
	thr := rt.NewThread()
	if err := thr.SpecDOALL(n, 4, func(tk *tlstm.Task, i int) {
		tk.Store(base+tlstm.Addr(i), uint64(i+1))
	}); err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	for i := 0; i < n; i++ {
		if d.Load(base+tlstm.Addr(i)) != uint64(i+1) {
			t.Fatalf("iteration %d lost", i)
		}
	}
}

func TestNestViaFacade(t *testing.T) {
	rt := tlstm.New(tlstm.Config{SpecDepth: 1})
	d := rt.Direct()
	a := d.Alloc(1)
	thr := rt.NewThread()
	if err := thr.Atomic(func(tk *tlstm.Task) {
		tk.Nest(func(tk *tlstm.Task) { tk.Store(a, 5) })
	}); err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if d.Load(a) != 5 {
		t.Fatal("nested write lost")
	}
}

func TestMultipleThreadsViaFacade(t *testing.T) {
	rt := tlstm.New(tlstm.Config{SpecDepth: 2})
	d := rt.Direct()
	a := d.Alloc(1)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		thr := rt.NewThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				_ = thr.Atomic(func(tk *tlstm.Task) { tk.Store(a, tk.Load(a)+1) })
			}
			thr.Sync()
		}()
	}
	wg.Wait()
	if d.Load(a) != 90 {
		t.Fatalf("counter = %d, want 90", d.Load(a))
	}
}

// The scheduler surface: Close drains worker pools, Atomic runs the
// head task on the caller (so does Submit under the Inline policy), and
// the scheduler counters reach the public Stats.
func TestSchedulerFacade(t *testing.T) {
	rt := tlstm.New(tlstm.Config{SpecDepth: 2})
	d := rt.Direct()
	a := d.Alloc(1)
	thr := rt.NewThread()
	inc := func(tk *tlstm.Task) { tk.Store(a, tk.Load(a)+1) }
	for i := 0; i < 5; i++ {
		if err := thr.Atomic(inc); err != nil {
			t.Fatal(err)
		}
	}
	thr.Sync()
	// One-task Atomics run on this goroutine: descriptors recycle, no
	// worker exists yet. A two-task one ships its tail to a worker.
	if st := thr.Stats(); st.WorkersSpawned != 0 || st.DescriptorReuses == 0 {
		t.Fatalf("one-task Atomic stream: workers=%d reuses=%d, want 0 workers and recycled descriptors", st.WorkersSpawned, st.DescriptorReuses)
	}
	if err := thr.Atomic(inc, inc); err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if st := thr.Stats(); st.WorkersSpawned == 0 || st.WorkersSpawned > 2 {
		t.Fatalf("WorkersSpawned = %d after a two-task Atomic, want in [1, SpecDepth]", st.WorkersSpawned)
	}
	rt.Close()
	rt.Close() // idempotent

	ir := tlstm.New(tlstm.Config{SpecDepth: 1, Policy: tlstm.SchedInline})
	defer ir.Close()
	if ir.Policy() != tlstm.SchedInline {
		t.Fatalf("Policy = %v, want %v", ir.Policy(), tlstm.SchedInline)
	}
	ithr := ir.NewThread()
	b := ir.Direct().Alloc(1)
	h, err := ithr.Submit(func(tk *tlstm.Task) { tk.Store(b, 7) })
	if err != nil {
		t.Fatal(err)
	}
	h.Wait()
	h.Wait() // idempotent: serial-keyed, not channel-keyed
	ithr.Sync()
	if got := ir.Direct().Load(b); got != 7 {
		t.Fatalf("inline store = %d, want 7", got)
	}
	if st := ithr.Stats(); st.WorkersSpawned != 0 {
		t.Fatalf("inline policy spawned %d workers", st.WorkersSpawned)
	}
}
