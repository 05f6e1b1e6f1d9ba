package core

import (
	"testing"

	"tlstm/internal/tm"
)

// collidingPair returns a fresh word a and a word b ≠ a of a fresh block
// that shares a's lock pair. Layout.Index is a Fibonacci hash, so no
// fixed stride collides; on a 16-pair table a 256-word block holds about
// 16 candidates. Finding none is a failure, not a skip.
func collidingPair(t *testing.T, rt *Runtime) (a, b tm.Addr) {
	t.Helper()
	d := rt.Direct()
	a = d.Alloc(1)
	const n = 256
	block := d.Alloc(n)
	for b = block; b < block+n; b++ {
		if rt.locks.For(b) == rt.locks.For(a) {
			return a, b
		}
	}
	t.Fatalf("no word of a %d-word block shares a's lock pair", n)
	return 0, 0
}

// Lock-pair collisions on the speculative read path: a future task
// reading address B while a past task wrote address A of the same pair
// must fall through the redo chain to B's committed value, and the
// recorded chain identity must still validate.
func TestSpeculativeReadThroughNonCoveringEntry(t *testing.T) {
	rt := New(Config{SpecDepth: 2, LockTableBits: 4}) // 16 pairs
	d := rt.Direct()
	a, b := collidingPair(t, rt)
	d.Store(b, 77)

	thr := rt.NewThread()
	var got uint64
	err := thr.shipAtomic(
		func(tk *Task) { tk.Store(a, 1) }, // locks the shared pair
		func(tk *Task) { got = tk.Load(b) },
	)
	if err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if got != 77 {
		t.Fatalf("read through non-covering entry = %d, want 77", got)
	}
	if d.Load(a) != 1 || d.Load(b) != 77 {
		t.Fatal("committed state wrong after collision transaction")
	}
}

// Both tasks writing different addresses of the same pair: the chain
// stacks two entries; the commit must publish both words.
func TestCollidingWritesAcrossTasks(t *testing.T) {
	rt := New(Config{SpecDepth: 2, LockTableBits: 4})
	d := rt.Direct()
	a, b := collidingPair(t, rt)

	thr := rt.NewThread()
	err := thr.shipAtomic(
		func(tk *Task) { tk.Store(a, 11) },
		func(tk *Task) { tk.Store(b, 22) },
	)
	if err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if d.Load(a) != 11 || d.Load(b) != 22 {
		t.Fatalf("collided writes published %d/%d, want 11/22", d.Load(a), d.Load(b))
	}
	// The pair must be fully unlocked afterwards.
	if rt.locks.For(a).W.Load() != nil {
		t.Fatal("write lock leaked after commit")
	}
}

// Read-modify-write across tasks on colliding addresses: program order
// must hold for both words.
func TestCollidingRMWSequence(t *testing.T) {
	rt := New(Config{SpecDepth: 3, LockTableBits: 4})
	d := rt.Direct()
	a, b := collidingPair(t, rt)
	for i := 0; i < 15; i++ {
		err := thrAtomic3(rt, a, b)
		if err != nil {
			t.Fatal(err)
		}
	}
	if d.Load(a) != 15 || d.Load(b) != 30 {
		t.Fatalf("a=%d b=%d, want 15/30", d.Load(a), d.Load(b))
	}
}

func thrAtomic3(rt *Runtime, a, b tm.Addr) error {
	thr := rt.NewThread()
	defer thr.Sync()
	return thr.shipAtomic(
		func(tk *Task) { tk.Store(a, tk.Load(a)+1) },
		func(tk *Task) { tk.Store(b, tk.Load(b)+1) },
		func(tk *Task) { tk.Store(b, tk.Load(b)+1) },
	)
}

// The solo task's own entry on a colliding pair does not cover the other
// word: a one-task Atomic that stores a and then loads b reads b's
// committed value, logs it, and still validates at commit (the pair is
// r-locked by the commit itself).
func TestSoloLoadThroughOwnNonCoveringEntry(t *testing.T) {
	rt := New(Config{SpecDepth: 2, LockTableBits: 4})
	d := rt.Direct()
	a, b := collidingPair(t, rt)
	d.Store(b, 77)

	thr := rt.NewThread()
	var got uint64
	if err := thr.Atomic(func(tk *Task) {
		tk.Store(a, 1)
		got = tk.Load(b)
	}); err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if got != 77 {
		t.Fatalf("read through own non-covering entry = %d, want 77", got)
	}
	if d.Load(a) != 1 || d.Load(b) != 77 || rt.locks.For(a).W.Load() != nil {
		t.Fatal("committed state wrong (or the pair still locked) after the collision transaction")
	}
	if st := thr.Stats(); st.TxCommitted != 1 || st.TxAborted != 0 || st.TaskRestarts != 0 || st.WorkersSpawned != 0 {
		t.Fatalf("stats = %+v, want one solo commit at the first attempt", st)
	}
}
