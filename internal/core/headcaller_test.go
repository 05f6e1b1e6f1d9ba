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

// Tests for the head-on-caller dispatch: Atomic runs a transaction's
// program-order-first task on the submitting goroutine and only the
// speculative tail on workers; Submit keeps shipping every task.

// goid names the calling goroutine ("goroutine 12"), from its stack
// header.
func goid() string {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	return string(f[0]) + " " + string(f[1])
}

// A one-task Atomic never touches a worker, whatever the ladder does;
// the body observes the caller's goroutine.
func TestAtomicOneTaskRunsOnCaller(t *testing.T) {
	for _, mc := range []mode.Config{{}, {Policy: mode.Adaptive}, {Policy: mode.Serial}} {
		rt := New(Config{SpecDepth: 2, LockTableBits: 12, Mode: mc})
		thr := rt.NewThread()
		d := rt.Direct()
		a := d.Alloc(1)
		me := goid()
		for i := 0; i < 10; i++ {
			var ran string
			if err := thr.Atomic(func(tk *Task) {
				ran = goid()
				tk.Store(a, tk.Load(a)+1)
			}); err != nil {
				t.Fatal(err)
			}
			if ran != me {
				t.Fatalf("mode %v: body ran on %s, caller is %s", mc.Policy, ran, me)
			}
			// Committed on return: no latch wait is owed.
			if thr.txDone.Seq() != thr.nextSerial {
				t.Fatalf("mode %v: Atomic returned before the commit", mc.Policy)
			}
		}
		thr.Sync()
		st := thr.Stats()
		if st.WorkersSpawned != 0 || st.TxCommitted != 10 || d.Load(a) != 10 {
			t.Fatalf("mode %v: workers=%d commits=%d counter=%d, want 0/10/10",
				mc.Policy, st.WorkersSpawned, st.TxCommitted, d.Load(a))
		}
		if st.DescriptorReuses == 0 {
			t.Fatalf("mode %v: caller runs must still count descriptor reuse: %+v", mc.Policy, st)
		}
		rt.Close()
	}
}

// A multi-task Atomic runs its head here and its tail elsewhere, and the
// tasks still take effect in program order.
func TestAtomicMultiTaskHeadOnCallerTailOnWorkers(t *testing.T) {
	rt := newRT(3)
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	me := goid()
	for i := 0; i < 30; i++ {
		var ran [3]string // last execution of each body; written before its task completes
		step := func(k int) TaskFunc {
			return func(tk *Task) {
				ran[k] = goid()
				tk.Store(a, tk.Load(a)*3+uint64(k))
			}
		}
		d.Store(a, 1)
		if err := thr.Atomic(step(0), step(1), step(2)); err != nil {
			t.Fatal(err)
		}
		if ran[0] != me {
			t.Fatalf("head ran on %s, caller is %s", ran[0], me)
		}
		if ran[1] == me || ran[2] == me || ran[1] == ran[2] {
			t.Fatalf("tail ran on %s / %s, caller is %s: want two distinct workers", ran[1], ran[2], me)
		}
		if got, want := d.Load(a), uint64(((1*3+0)*3+1)*3+2); got != want {
			t.Fatalf("a = %d, want %d (program order)", got, want)
		}
	}
	thr.Sync()
	if st := thr.Stats(); st.WorkersSpawned < 2 || st.WorkersSpawned > 3 {
		t.Fatalf("WorkersSpawned = %d, want 2..3 (tail slots rotate through the ring)", st.WorkersSpawned)
	}
}

// A Submit-only stream still ships every task and still overlaps
// transactions: the first transaction's body does not finish until the
// second one's has started.
func TestSubmitOnlyStreamStillOverlaps(t *testing.T) {
	rt := newRT(2)
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a, b := d.Alloc(1), d.Alloc(1)
	me := goid()
	secondStarted := make(chan struct{})
	var once sync.Once
	var firstOn, secondOn string
	h1, err := thr.Submit(func(tk *Task) {
		firstOn = goid()
		select {
		case <-secondStarted:
		case <-time.After(30 * time.Second):
			panic("the next Submit's task never started while this one was active")
		}
		tk.Store(a, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := thr.Submit(func(tk *Task) {
		secondOn = goid()
		once.Do(func() { close(secondStarted) })
		tk.Store(b, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	h1.Wait()
	h2.Wait()
	thr.Sync()
	if firstOn == me || secondOn == me {
		t.Fatalf("Submit ran a body on the submitter (%s / %s)", firstOn, secondOn)
	}
	if st := thr.Stats(); st.WorkersSpawned != 2 || d.Load(a) != 1 || d.Load(b) != 2 {
		t.Fatalf("workers=%d a=%d b=%d, want 2/1/2", st.WorkersSpawned, d.Load(a), d.Load(b))
	}
}

// The ownership hand-off: mixing Submit and Atomic on one thread makes a
// descriptor run on a worker in one incarnation and on the submitter in
// the next. Its trace ring, free ring and logs are plain memory, so the
// race detector checks that they change hands only across the WaitIdle
// acquire / arm release; the flight recorder is armed so the trace ring
// is part of it, and the opacity oracle checks what the dump says.
func TestSubmitAtomicHandOff(t *testing.T) {
	for depth := 2; depth <= 3; depth++ {
		rec := txtrace.NewRecorder(1 << 14)
		rt := New(Config{SpecDepth: depth, LockTableBits: 12, Trace: rec, ReclaimAudit: true})
		d := rt.Direct()
		const words = 4
		base := d.Alloc(words)
		var wg sync.WaitGroup
		const threads, rounds = 2, 40
		for w := 0; w < threads; w++ {
			thr := rt.NewThread()
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				inc := func(k int) TaskFunc {
					x := base + tm.Addr((w+k)%words)
					return func(tk *Task) { tk.Store(x, tk.Load(x)+1) }
				}
				for i := 0; i < rounds; i++ {
					// An odd number of one-task submissions per round, so
					// every slot sees both kinds of runner at every depth.
					if _, err := thr.Submit(inc(i)); err != nil {
						t.Error(err)
					}
					if err := thr.Atomic(inc(i + 1)); err != nil {
						t.Error(err)
					}
					if _, err := thr.Submit(inc(i+2), inc(i+3)); err != nil {
						t.Error(err)
					}
					if err := thr.Atomic(inc(i), inc(i+1)); err != nil {
						t.Error(err)
					}
					if err := thr.AtomicRO(func(tk *Task) { tk.Load(base) }); err != nil {
						t.Error(err)
					}
				}
				thr.Sync()
			}(w)
		}
		wg.Wait()
		rt.Close()

		var sum uint64
		for i := 0; i < words; i++ {
			sum += d.Load(base + tm.Addr(i))
		}
		if want := uint64(threads * rounds * 6); sum != want {
			t.Fatalf("depth %d: sum = %d, want %d", depth, sum, want)
		}
		checkDump(t, rec)
	}
}

// A genuine body panic in a caller-run head surfaces in the Atomic
// caller with its value intact, and leaves the descriptor machinery
// consistent: slot retired, transaction descriptor released. The thread
// itself is wedged (that transaction never commits), as documented.
func TestHeadPanicRetiresSlot(t *testing.T) {
	rt := newRT(2)
	thr := rt.NewThread()
	a := rt.Direct().Alloc(1)
	var got any
	func() {
		defer func() { got = recover() }()
		_ = thr.Atomic(func(tk *Task) {
			tk.Store(a, 1)
			panic("boom")
		})
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want the body's panic value", got)
	}
	for i := range thr.slots {
		if thr.slots[i].Load() != nil {
			t.Fatalf("slot %d still occupied after the panic", i)
		}
		thr.pool.WaitIdle(i) // must not spin: a caller run never arms the slot
	}
	if live := thr.txRing[0].live.Load(); live != 0 {
		t.Fatalf("tx.live = %d after the panic, want 0", live)
	}
	if rt.Direct().Load(a) != 0 || thr.txDone.Seq() != 0 {
		t.Fatal("the panicked transaction left an effect")
	}
}
