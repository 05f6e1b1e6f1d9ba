package core

import (
	"runtime"
	"sync"
	"testing"
)

// TestCommitReleaseLeavesStackedChain stages the release rule of the one
// commit (txrt.Desc.Commit, via txlog.CommitScratch.Release) on the ring:
// a pair's redo chain is dropped only while its head is an entry of the
// committing transaction.
//
// Transaction A's first task writes x (pair P) and completes; before A's
// commit task finishes, a task of the next transaction B stacks its own
// entry on P. A's commit must leave P's chain in place — B's entry on
// top, A's value in memory — and queue none of A's entries on P for
// reuse, while it drops pair Q, which only A's commit task wrote. A
// release that drops every chain fails here on every run.
func TestCommitReleaseLeavesStackedChain(t *testing.T) {
	const depth = 4
	rt := New(Config{SpecDepth: depth, LockTableBits: 12})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	x, y := d.Alloc(1), d.Alloc(1)
	p, q := rt.locks.For(x), rt.locks.For(y)
	if p == q {
		t.Fatal("setup: x and y share a lock pair")
	}

	// The gates open on every exit, so a failing run does not strand the
	// parked bodies and hang rt.Close.
	stacked, bRelease := make(chan struct{}), make(chan struct{})
	letA := sync.OnceFunc(func() { close(stacked) }) // B's entry heads P
	letB := sync.OnceFunc(func() { close(bRelease) })
	defer letB()
	defer letA()
	hA, err := thr.Submit(
		func(tk *Task) { tk.Store(x, 1) },
		func(tk *Task) {
			tk.Store(y, 2)
			<-stacked
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	hB, err := thr.Submit(func(tk *Task) {
		// Stack on A's completed entry rather than race it for P.
		for thr.completedTask.Load() < 1 {
			runtime.Gosched()
		}
		tk.Store(x, 3)
		<-bRelease
	})
	if err != nil {
		t.Fatal(err)
	}

	head := p.W.Load()
	for head == nil || head.Serial != 3 {
		runtime.Gosched()
		head = p.W.Load()
	}
	aEntry := head.Prev.Load()
	if aEntry == nil || aEntry.Serial != 1 {
		t.Fatalf("setup: B's entry must sit on A's first task's entry, got %+v", aEntry)
	}
	letA()
	hA.Wait()

	if got := p.W.Load(); got != head || got.Prev.Load() != aEntry {
		t.Fatal("A's commit dropped P's chain although B's entry headed it")
	}
	if got := d.Load(x); got != 1 {
		t.Fatalf("memory at x = %d after A's commit, want A's value 1", got)
	}
	if r := thr.ring[1].writeLog.Ring(); r.Quiescing()+r.Free() != 0 {
		t.Fatal("A's commit queued its entry on P for reuse while B's entry still chains it")
	}
	if q.W.Load() != nil {
		t.Fatal("A's commit left Q's chain, headed by its own entry, in place")
	}
	if r := thr.ring[2].writeLog.Ring(); r.Quiescing()+r.Free() != 1 {
		t.Fatalf("A's commit retired %d entries of its commit task, want its entry on Q", r.Quiescing()+r.Free())
	}

	letB()
	hB.Wait()
	thr.Sync()
	if got := d.Load(x); got != 3 || p.W.Load() != nil {
		t.Fatalf("after B's commit: x = %d, P head %p; want 3 and a dropped chain", got, p.W.Load())
	}
}
