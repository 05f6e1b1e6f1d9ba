package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLatchZeroValueAndOrder(t *testing.T) {
	var l Latch
	if l.Seq() != 0 {
		t.Fatalf("zero latch Seq = %d", l.Seq())
	}
	l.Wait(0) // already satisfied: must not block
	l.Publish(3)
	l.Publish(1) // regression must be a no-op
	if l.Seq() != 3 {
		t.Fatalf("Seq = %d after Publish(3), Publish(1)", l.Seq())
	}
	l.Wait(2)
	l.Wait(3)
}

func TestLatchWakesParkedWaiters(t *testing.T) {
	var l Latch
	const waiters = 8
	var wg sync.WaitGroup
	var woken atomic.Int32
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			l.Wait(n)
			if l.Seq() < n {
				t.Errorf("Wait(%d) returned at seq %d", n, l.Seq())
			}
			woken.Add(1)
		}(int64(i))
	}
	// Publish serials one at a time; every waiter must eventually pass.
	for n := int64(1); n <= waiters; n++ {
		l.Publish(n)
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if woken.Load() != waiters {
		t.Fatalf("woken = %d, want %d", woken.Load(), waiters)
	}
}

func TestLatchConcurrentPublishers(t *testing.T) {
	var l Latch
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				l.Publish(base + i*4)
			}
		}(int64(p + 1))
	}
	done := make(chan struct{})
	go func() {
		l.Wait(999*4 + 1) // reachable: max published is ≥ 4 + 999*4
		close(done)
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not observe the final sequence")
	}
	if got := l.Seq(); got != 4+999*4 {
		t.Fatalf("final Seq = %d, want %d", got, 4+999*4)
	}
}

func TestPoolRunsArmedSlotsOnWorkers(t *testing.T) {
	const slots = 3
	var ran [slots]atomic.Int64
	p := New(slots, Pooled, func(i int) {
		ran[i].Add(1)
	})
	defer p.Close()
	if p.Slots() != slots {
		t.Fatal("pool identity")
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < slots; i++ {
			p.WaitIdle(i)
			p.Arm(i)
		}
	}
	for i := 0; i < slots; i++ {
		p.WaitIdle(i)
		if ran[i].Load() != 50 {
			t.Fatalf("slot %d ran %d times, want 50", i, ran[i].Load())
		}
		if p.Generation(i) != 50 {
			t.Fatalf("slot %d generation = %d, want 50", i, p.Generation(i))
		}
	}
	if p.WorkersSpawned() != slots {
		t.Fatalf("WorkersSpawned = %d, want %d", p.WorkersSpawned(), slots)
	}
}

// RunHere runs the slot on the calling goroutine, stamps the generation
// like Arm, spawns nothing — and when the slot already has a worker
// (alternating Arm and RunHere is the Submit-then-Atomic hand-off) the
// worker must not run the descriptor a second time.
func TestPoolRunHereIsSynchronousAndAlternatesWithArm(t *testing.T) {
	var runs int // no synchronization: the race detector checks the hand-off edges
	p := New(1, Pooled, func(i int) { runs++ })
	defer p.Close()
	for i := 0; i < 10; i++ {
		p.WaitIdle(0)
		p.RunHere(0)
		if runs != i+1 {
			t.Fatalf("RunHere returned before the run: runs=%d", runs)
		}
	}
	if p.WorkersSpawned() != 0 {
		t.Fatalf("WorkersSpawned = %d after RunHere only", p.WorkersSpawned())
	}
	for i := 0; i < 100; i++ {
		p.WaitIdle(0)
		p.Arm(0)
		p.WaitIdle(0)
		p.RunHere(0)
	}
	p.WaitIdle(0)
	if runs != 210 || p.Generation(0) != 210 {
		t.Fatalf("runs = %d, generation = %d, want 210 each", runs, p.Generation(0))
	}
	if p.WorkersSpawned() != 1 {
		t.Fatalf("WorkersSpawned = %d, want 1", p.WorkersSpawned())
	}
}

func TestPoolCloseDrainsAndJoins(t *testing.T) {
	before := runtime.NumGoroutine()
	var ran atomic.Int32
	p := New(4, Pooled, func(i int) {
		time.Sleep(time.Millisecond)
		ran.Add(1)
	})
	for i := 0; i < 4; i++ {
		p.Arm(i)
	}
	p.Close() // must wait for armed slots to finish, then join workers
	if ran.Load() != 4 {
		t.Fatalf("Close returned with %d/4 tasks finished", ran.Load())
	}
	p.Close() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked: %d > %d", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

func TestPoolLazySpawn(t *testing.T) {
	p := New(4, Pooled, func(i int) {})
	defer p.Close()
	if p.WorkersSpawned() != 0 {
		t.Fatal("workers must spawn lazily")
	}
	if spawned := p.Arm(2); !spawned {
		t.Fatal("first arm of a slot must spawn its worker")
	}
	p.WaitIdle(2)
	if spawned := p.Arm(2); spawned {
		t.Fatal("re-arm must reuse the long-lived worker")
	}
	p.WaitIdle(2)
	if p.WorkersSpawned() != 1 {
		t.Fatalf("WorkersSpawned = %d, want 1", p.WorkersSpawned())
	}
}

func TestPolicyString(t *testing.T) {
	if Pooled.String() != "pooled" || Inline.String() != "inline" || Policy(9).String() != "unknown" {
		t.Fatal("Policy.String")
	}
}

// A panic out of RunHere propagates to the caller and leaves the slot
// idle, so a recovering application does not wedge the ring.
func TestPoolRunHerePanicLeavesSlotIdle(t *testing.T) {
	boom := true
	p := New(1, Pooled, func(i int) {
		if boom {
			panic("task body bug")
		}
	})
	defer p.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic must propagate to the caller")
			}
		}()
		p.RunHere(0)
	}()
	p.WaitIdle(0) // must not spin forever
	boom = false
	p.Arm(0) // slot must be armable
	p.WaitIdle(0)
	if p.Generation(0) != 2 {
		t.Fatalf("Generation = %d, want 2", p.Generation(0))
	}
}
