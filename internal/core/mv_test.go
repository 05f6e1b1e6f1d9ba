package core

import (
	"sync/atomic"
	"testing"

	"tlstm/internal/tm"
)

func newMVRT(depth, k int) *Runtime {
	return New(Config{SpecDepth: depth, LockTableBits: 16, MVDepth: k})
}

// TestAtomicROMVSoak is the TLSTM half of the acceptance soak, driven
// from one goroutine for deterministic assertions: a writer thread
// commits transfers, a reader thread runs declared read-only
// transactions of SPECDEPTH tasks, each scanning the array at the
// transaction's shared frozen snapshot. Every scan must commit on the
// wait-free path: zero transaction aborts, zero fallback misses, zero
// snapshot extensions, nothing logged.
func TestAtomicROMVSoak(t *testing.T) {
	const words, init, iters, depth = 8, 100, 300, 2
	rt := newMVRT(depth, 2)
	defer rt.Close()
	d := rt.Direct()
	base := d.Alloc(words)
	for i := 0; i < words; i++ {
		d.Store(base+tm.Addr(i), init)
	}
	writer := rt.NewThread()
	reader := rt.NewThread()

	scan := func(tk *Task) {
		var sum uint64
		for i := 0; i < words; i++ {
			sum += tk.Load(base + tm.Addr(i))
		}
		if sum != words*init {
			t.Errorf("scan saw total %d, want %d", sum, words*init)
		}
	}
	for i := 0; i < iters; i++ {
		src, dst := base+tm.Addr(i%words), base+tm.Addr((i+1)%words)
		if err := writer.Atomic(func(tk *Task) {
			tk.Store(src, tk.Load(src)-1)
			tk.Store(dst, tk.Load(dst)+1)
		}); err != nil {
			t.Fatal(err)
		}
		if err := reader.shipAtomicRO(scan, scan); err != nil {
			t.Fatal(err)
		}
	}
	reader.Sync()
	st := reader.Stats()
	if st.TxCommitted != iters {
		t.Errorf("reader commits = %d, want %d", st.TxCommitted, iters)
	}
	if st.TxAborted != 0 || st.MVMisses != 0 || st.SnapshotExtensions != 0 {
		t.Errorf("reader left the wait-free path: aborts=%d misses=%d ext=%d",
			st.TxAborted, st.MVMisses, st.SnapshotExtensions)
	}
	if want := uint64(iters * depth * words); st.MVReads != want {
		t.Errorf("MVReads = %d, want %d", st.MVReads, want)
	}
	if st.ReadSetSizes.Max() != 0 || st.WriteSetSizes.Max() != 0 {
		t.Errorf("mv tasks logged entries: rset[%s] wset[%s]",
			st.ReadSetSizes, st.WriteSetSizes)
	}
}

// TestAtomicROMVRingWraparound is the TLSTM overrun regression: a
// reader parked across K+2 commits to one word must fall back to the
// validated path (whole-transaction restart) — never return a torn or
// too-new value.
func TestAtomicROMVRingWraparound(t *testing.T) {
	const k, total = 2, 1000
	rt := newMVRT(1, k)
	defer rt.Close()
	d := rt.Direct()
	base := d.Alloc(2)
	d.Store(base, total) // invariant: base + base+1 == total

	writer := rt.NewThread()
	reader := rt.NewThread()
	trigger := make(chan struct{})
	done := make(chan struct{})
	go func() {
		<-trigger
		for i := 0; i < k+2; i++ {
			if err := writer.Atomic(func(tk *Task) {
				tk.Store(base, tk.Load(base)-1)
				tk.Store(base+1, tk.Load(base+1)+1)
			}); err != nil {
				t.Error(err)
			}
		}
		writer.Sync()
		close(done)
	}()

	var once atomic.Bool
	if err := reader.AtomicRO(func(tk *Task) {
		a := tk.Load(base)
		if once.CompareAndSwap(false, true) {
			close(trigger)
			<-done
		}
		b := tk.Load(base + 1)
		if a+b != total {
			t.Errorf("inconsistent read after wraparound: %d + %d != %d", a, b, total)
		}
	}); err != nil {
		t.Fatal(err)
	}
	reader.Sync()
	st := reader.Stats()
	if st.MVMisses == 0 || st.TxAborted == 0 {
		t.Fatalf("fallback not recorded: mvMiss=%d txAborts=%d, want >= 1 each",
			st.MVMisses, st.TxAborted)
	}
	if got := d.Load(base) + d.Load(base+1); got != total {
		t.Fatalf("total = %d, want %d", got, total)
	}
}

// TestAtomicROMVStoreFallsBack: a store inside a declared read-only
// transaction aborts the wait-free attempt and re-runs the whole
// transaction validated — mis-declaring costs a restart, never
// correctness.
func TestAtomicROMVStoreFallsBack(t *testing.T) {
	rt := newMVRT(2, 2)
	defer rt.Close()
	d := rt.Direct()
	a := d.Alloc(1)
	d.Store(a, 5)

	thr := rt.NewThread()
	if err := thr.shipAtomicRO(
		func(tk *Task) { tk.Store(a, tk.Load(a)+1) },
		func(tk *Task) { tk.Store(a, tk.Load(a)+1) },
	); err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if got := d.Load(a); got != 7 {
		t.Fatalf("word = %d, want 7", got)
	}
	st := thr.Stats()
	if st.MVMisses == 0 || st.TxAborted == 0 {
		t.Fatalf("store fallback not recorded: mvMiss=%d txAborts=%d", st.MVMisses, st.TxAborted)
	}
	if st.TxCommitted != 1 {
		t.Fatalf("commits = %d, want 1", st.TxCommitted)
	}
}

// TestAtomicROMVDisabled: without MVDepth the declared read-only entry
// point is just the validated path.
func TestAtomicROMVDisabled(t *testing.T) {
	rt := newRT(2)
	defer rt.Close()
	if rt.MVDepth() != 0 {
		t.Fatalf("MVDepth = %d, want 0", rt.MVDepth())
	}
	d := rt.Direct()
	a := d.Alloc(1)
	d.Store(a, 9)
	thr := rt.NewThread()
	var got atomic.Uint64
	if err := thr.AtomicRO(func(tk *Task) { got.Store(tk.Load(a)) }); err != nil {
		t.Fatal(err)
	}
	thr.Sync()
	if got.Load() != 9 {
		t.Fatalf("read %d, want 9", got.Load())
	}
	st := thr.Stats()
	if st.MVReads != 0 || st.MVMisses != 0 {
		t.Fatalf("mv counters moved without multi-versioning: %d/%d", st.MVReads, st.MVMisses)
	}
}
