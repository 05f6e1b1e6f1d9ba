//go:build !race

package core

import (
	"runtime"
	"testing"

	"tlstm/internal/mode"
	"tlstm/internal/tm"
	"tlstm/internal/txtrace"
)

// Zero-allocation and zero-spawn assertions for the scheduler
// (mirroring internal/stm/alloc_norace_test.go): a warmed TLSTM
// Submit+Wait round-trip must neither allocate nor spawn a goroutine,
// and a warmed one-task Atomic must not even own a worker.
// (!race: AllocsPerRun and goroutine counting are not meaningful under
// the race detector's instrumentation.)

// TestTaskOpsZeroAllocWarmed asserts the TLSTM steady-state read/write
// path allocates nothing once a task's working set is warmed: loads hit
// the task's own write-lock entries or the committed store, stores
// update entries in place, and the logs reuse their backing arrays.
func TestTaskOpsZeroAllocWarmed(t *testing.T) {
	rt := New(Config{SpecDepth: 2})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	addrs := make([]tm.Addr, 8)
	for i := range addrs {
		addrs[i] = d.Alloc(1)
	}
	var got float64
	_ = thr.Atomic(func(tk *Task) {
		for _, a := range addrs {
			tk.Store(a, tk.Load(a)+1) // warm
		}
		i := 0
		got = testing.AllocsPerRun(200, func() {
			a := addrs[i%len(addrs)]
			tk.Store(a, tk.Load(a)+1)
			i++
		})
	})
	thr.Sync()
	if got != 0 {
		t.Fatalf("warmed task Load+Store allocates %.1f objects/op, want 0", got)
	}
}

// TestSubmitWaitZeroAllocWarmed is the pooled scheduler's headline
// assertion: a warmed read-only Submit+Wait round-trip — transaction
// descriptor, task descriptor, handle, dispatch, completion — touches
// the heap not at all. Writer transactions reach the same floor once
// their descriptors' entry rings have warmed (asserted below): retired
// write-lock entries are recycled under the epoch-based quiescence
// horizon instead of reallocated.
func TestSubmitWaitZeroAllocWarmed(t *testing.T) {
	rt := New(Config{SpecDepth: 2})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	var sink uint64
	body := func(tk *Task) { sink += tk.Load(a) }
	_ = thr.Atomic(body) // warm: spawn workers, grow logs and rings
	thr.Sync()
	if got := testing.AllocsPerRun(200, func() {
		h, err := thr.Submit(body)
		if err != nil {
			t.Fatal(err)
		}
		h.Wait()
	}); got != 0 {
		t.Fatalf("warmed read-only Submit+Wait allocates %.1f objects/op, want 0", got)
	}
	thr.Sync()
}

// TestAtomicMultiTaskZeroAllocWarmed extends the round-trip assertion
// to a two-task read-only transaction: the variadic task list stays on
// the caller's stack and both recycled descriptors dispatch without
// touching the heap.
func TestAtomicMultiTaskZeroAllocWarmed(t *testing.T) {
	rt := New(Config{SpecDepth: 2})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	var sink uint64
	f1 := func(tk *Task) { sink += tk.Load(a) }
	f2 := func(tk *Task) { sink += tk.Load(a) }
	_ = thr.shipAtomic(f1, f2) // warm
	thr.Sync()
	if got := testing.AllocsPerRun(200, func() {
		if err := thr.shipAtomic(f1, f2); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("warmed two-task Atomic allocates %.1f objects/op, want 0", got)
	}
	thr.Sync()
	if st := thr.Stats(); st.TxFused != 0 {
		t.Fatalf("TxFused = %d: the shipped path was not the one measured", st.TxFused)
	}
}

// TestAtomicFusedZeroAlloc is the fused path's floor: once the spawn
// decision has fused a stream of short two-body writer transactions, one
// more runs both bodies on the caller without touching the heap — the
// bodies are copied into the thread's slice and the fused task was bound
// at NewThread.
func TestAtomicFusedZeroAlloc(t *testing.T) {
	rt := New(Config{SpecDepth: 2})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a, b := d.Alloc(1), d.Alloc(1)
	f1 := func(tk *Task) { tk.Store(a, tk.Load(a)+1) }
	f2 := func(tk *Task) { tk.Store(b, tk.Load(b)+tk.Load(a)) }
	for i := 0; i < 4*rt.SpecDepth(); i++ {
		_ = thr.Atomic(f1, f2) // warm: fuse, one retired entry per descriptor ring
	}
	thr.Sync()
	before := thr.Stats()
	got := testing.AllocsPerRun(200, func() {
		if err := thr.Atomic(f1, f2); err != nil {
			t.Fatal(err)
		}
	})
	thr.Sync()
	if got != 0 {
		t.Fatalf("warmed fused two-body Atomic allocates %.1f objects/op, want 0", got)
	}
	if st := thr.Stats().Minus(before); st.TxFused != st.TxCommitted || st.TxFused == 0 || st.WorkersSpawned != 0 {
		t.Fatalf("TxFused = %d of %d commits, %d workers spawned: the fused path was not the one measured",
			st.TxFused, st.TxCommitted, st.WorkersSpawned)
	}
}

// TestWriterTxZeroAllocWarmed pins the writer-transaction floor at
// zero: once every descriptor's entry ring has a quiesced entry to
// serve, a whole single-write Submit+Wait round-trip allocates nothing
// — no txState, no Task, no handle, no channel, no goroutine stack,
// and (the last piece, via epoch-based entry reclamation) no fresh
// write-lock entry either. This is the headline number of the
// reclamation work: BenchmarkThreadCommitSmallTx at 0 allocs/op.
func TestWriterTxZeroAllocWarmed(t *testing.T) {
	rt := New(Config{SpecDepth: 2})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	body := func(tk *Task) { tk.Store(a, tk.Load(a)+1) }
	for i := 0; i < 2*rt.SpecDepth(); i++ {
		_ = thr.Atomic(body) // warm: one retired entry per descriptor ring
	}
	thr.Sync()
	got := testing.AllocsPerRun(200, func() {
		if err := thr.Atomic(body); err != nil {
			t.Fatal(err)
		}
	})
	thr.Sync()
	if got != 0 {
		t.Fatalf("warmed single-write Atomic allocates %.1f objects/op, want 0 (entries must recycle through the quiescence ring)", got)
	}
	if st := thr.Stats(); st.EntryReclaims == 0 {
		t.Fatal("EntryReclaims = 0 after a warmed writer run; the zero-alloc floor must come from reclamation, not dead code")
	}
}

// TestWriterTxZeroAllocAboveScanMax is the writer floor for a commit too
// large for the commit scratch's linear scan: 128 written pairs (4× the
// txlog scanMax) put LockPair/Saved/Released on the pair→position map,
// which Reset clears but keeps, so a warmed commit still allocates
// nothing.
func TestWriterTxZeroAllocAboveScanMax(t *testing.T) {
	const words = 128
	rt := New(Config{SpecDepth: 2})
	defer rt.Close()
	thr := rt.NewThread()
	base := rt.Direct().Alloc(words)
	body := func(tk *Task) {
		for i := tm.Addr(0); i < words; i++ {
			tk.Store(base+i, tk.Load(base+i)+1)
		}
	}
	for i := 0; i < 2*rt.SpecDepth(); i++ {
		_ = thr.Atomic(body) // warm: entries, logs and the scratch's map
	}
	thr.Sync()
	got := testing.AllocsPerRun(50, func() {
		if err := thr.Atomic(body); err != nil {
			t.Fatal(err)
		}
	})
	thr.Sync()
	if got != 0 {
		t.Fatalf("warmed %d-pair writer Atomic allocates %.1f objects/op, want 0", words, got)
	}
}

// TestWriterTxZeroAllocModeArmed repeats the writer floor with the
// execution-mode controller armed: the adaptive ladder's escalation
// checks, outcome folds and window polls must ride the existing
// counters without adding an allocation to the commit path.
func TestWriterTxZeroAllocModeArmed(t *testing.T) {
	rt := New(Config{SpecDepth: 2, Mode: mode.Config{Policy: mode.Adaptive}})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	body := func(tk *Task) { tk.Store(a, tk.Load(a)+1) }
	for i := 0; i < 2*rt.SpecDepth(); i++ {
		_ = thr.Atomic(body)
	}
	thr.Sync()
	got := testing.AllocsPerRun(200, func() {
		if err := thr.Atomic(body); err != nil {
			t.Fatal(err)
		}
	})
	thr.Sync()
	if got != 0 {
		t.Fatalf("armed-controller single-write Atomic allocates %.1f objects/op, want 0", got)
	}
	if st := thr.Stats(); st.ModeFallbacks != 0 {
		t.Fatalf("uncontended run must not fall back: %+v", st)
	}
}

// TestSubmitSpawnsNoGoroutines asserts the worker pool is long-lived:
// after warm-up, a burst of submissions leaves the process goroutine
// count unchanged — Submit dispatches to parked workers instead of
// spawning, and a Submit-only stream owns exactly one worker per slot.
func TestSubmitSpawnsNoGoroutines(t *testing.T) {
	rt := New(Config{SpecDepth: 3})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	var sink uint64
	body := func(tk *Task) { sink += tk.Load(a) }
	for i := 0; i < 10; i++ { // warm: every slot's worker spawned
		submitWaitTx(thr, body)
	}
	thr.Sync()
	before := runtime.NumGoroutine()
	for i := 0; i < 500; i++ {
		submitWaitTx(thr, body)
	}
	thr.Sync()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d → %d across 500 warmed transactions; Submit must not spawn", before, after)
	}
	st := thr.Stats()
	if st.WorkersSpawned != uint64(rt.SpecDepth()) {
		t.Fatalf("WorkersSpawned = %d, want %d (one per SpecDepth slot, spawned once)", st.WorkersSpawned, rt.SpecDepth())
	}
	if st.DescriptorReuses == 0 {
		t.Fatal("DescriptorReuses = 0 after 510 transactions on a depth-3 ring")
	}
}

// TestAtomicOneTaskZeroAllocAndZeroWorkers asserts the head-on-caller
// path: a one-task Atomic runs its body on the calling goroutine — no
// worker, no bell, no latch wait — and stays allocation-free, writer
// transactions included.
func TestAtomicOneTaskZeroAllocAndZeroWorkers(t *testing.T) {
	rt := New(Config{SpecDepth: 2})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	body := func(tk *Task) { tk.Store(a, tk.Load(a)+1) }
	for i := 0; i < 2*rt.SpecDepth(); i++ {
		_ = thr.Atomic(body) // warm: one retired entry per descriptor ring
	}
	goroutines := runtime.NumGoroutine()
	if got := testing.AllocsPerRun(200, func() { _ = thr.Atomic(body) }); got != 0 {
		t.Fatalf("warmed one-task Atomic allocates %.1f objects/op, want 0", got)
	}
	thr.Sync()
	if st := thr.Stats(); st.WorkersSpawned != 0 || st.DescriptorReuses == 0 {
		t.Fatalf("WorkersSpawned = %d, DescriptorReuses = %d; want 0 workers and recycled descriptors",
			st.WorkersSpawned, st.DescriptorReuses)
	}
	if now := runtime.NumGoroutine(); now > goroutines {
		t.Fatalf("goroutines grew %d → %d under one-task Atomic", goroutines, now)
	}
}

// TestTracedWriterTxZeroAllocWarmed is TestWriterTxZeroAllocWarmed with
// the flight recorder armed: the rings are pre-allocated at NewThread,
// so every Record on the warmed writer path is a plain store into a
// ring slot — tracing must not reintroduce allocations. (The disabled
// case is covered by every other test here: Config.Trace defaults to
// nil, which is exactly the no-op-tracer hot path the benchmarks
// measure.)
func TestTracedWriterTxZeroAllocWarmed(t *testing.T) {
	rec := txtrace.NewRecorder(1 << 12)
	rt := New(Config{SpecDepth: 2, Trace: rec})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	body := func(tk *Task) { tk.Store(a, tk.Load(a)+1) }
	for i := 0; i < 2*rt.SpecDepth(); i++ {
		_ = thr.Atomic(body) // warm: one retired entry per descriptor ring
	}
	thr.Sync()
	got := testing.AllocsPerRun(200, func() {
		if err := thr.Atomic(body); err != nil {
			t.Fatal(err)
		}
	})
	thr.Sync()
	if got != 0 {
		t.Fatalf("traced warmed single-write Atomic allocates %.1f objects/op, want 0 (the record path must be a plain ring store)", got)
	}
	if rec.Events() == 0 {
		t.Fatal("recorder captured no events; the zero-alloc result would be vacuous")
	}
}

// TestAtomicROMultiVersionZeroAlloc: a warmed declared read-only
// transaction on the multi-version path allocates nothing, on both arms
// of the probe (txrt.Desc.ReadMV) — the first word from memory, the
// rest from the version ring after another thread commits in the middle
// of the scan.
func TestAtomicROMultiVersionZeroAlloc(t *testing.T) {
	rt := New(Config{SpecDepth: 2, MVDepth: 2})
	defer rt.Close()
	reader, writer := rt.NewThread(), rt.NewThread()
	d := rt.Direct()
	addrs := make([]tm.Addr, 8)
	for i := range addrs {
		addrs[i] = d.Alloc(1)
	}
	var sink uint64
	inc := func(tk *Task) {
		for _, a := range addrs {
			tk.Store(a, tk.Load(a)+1)
		}
	}
	scan := func(tk *Task) {
		sink += tk.Load(addrs[0])
		if err := writer.Atomic(inc); err != nil {
			t.Error(err)
		}
		for _, a := range addrs[1:] {
			sink += tk.Load(a)
		}
	}
	const runs = 200
	for i := 0; i < 2*rt.SpecDepth(); i++ {
		_ = reader.AtomicRO(scan) // warm both threads' descriptor rings
	}
	if n := testing.AllocsPerRun(runs, func() {
		if err := reader.AtomicRO(scan); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warmed multi-version AtomicRO allocates %.1f objects/op, want 0", n)
	}
	reader.Sync()
	writer.Sync()
	// Scans: the warm-ups, AllocsPerRun's own, then runs.
	st := reader.Stats()
	if want := uint64(len(addrs)) * uint64(2*rt.SpecDepth()+1+runs); st.MVReads != want || st.MVMisses != 0 {
		t.Fatalf("MVReads=%d MVMisses=%d, want %d and 0: the scans left the multi-version path", st.MVReads, st.MVMisses, want)
	}
	_ = sink
}
