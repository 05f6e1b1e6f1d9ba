package core

import (
	"testing"

	"tlstm/internal/locktable"
	"tlstm/internal/mode"
	"tlstm/internal/sched"
	"tlstm/internal/tm"
	"tlstm/internal/txlog"
)

// Allocation-regression benchmarks for the TLSTM hot paths. The
// steady-state read/write path of a warmed task must not allocate; with
// the pooled scheduler (internal/sched) the whole Submit+Wait
// round-trip must not allocate for read-only transactions, and — since
// epoch-based entry reclamation (reclaim.go) — not for small writer
// transactions either: retired write-lock entries recycle through each
// descriptor's quiescence ring instead of reallocating (validate-task
// depends on entry pointer identity, so reuse waits out the horizon).
// Companion assertions live in alloc_norace_test.go.

// BenchmarkTaskLoadStoreWarmed measures one read-modify-write pair per
// op inside a single long-running task whose working set has already
// been touched (logs grown, write-lock entries installed). allocs/op
// must be 0.
func BenchmarkTaskLoadStoreWarmed(b *testing.B) {
	rt := New(Config{SpecDepth: 2})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	addrs := make([]tm.Addr, benchAddrs)
	for i := range addrs {
		addrs[i] = d.Alloc(1)
	}
	b.ReportAllocs()
	_ = thr.Atomic(func(t *Task) {
		for _, a := range addrs {
			t.Store(a, t.Load(a)+1) // warm: one entry per pair, logs grown
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := addrs[i%benchAddrs]
			t.Store(a, t.Load(a)+1)
		}
	})
	thr.Sync()
}

const benchAddrs = 8

// benchSmallTx times one whole single-task writer transaction per
// iteration — prepare, dispatch, commit — on one warmed thread; run is
// the entry under test. With descriptors, handles, completion waits and
// (via the quiescence rings) write-lock entries all recycled, allocs/op
// must be 0 on every variant.
func benchSmallTx(b *testing.B, cfg Config, run func(*Thread, TaskFunc)) {
	rt := New(cfg)
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	body := func(t *Task) { t.Store(a, t.Load(a)+1) }
	run(thr, body)
	thr.Sync()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(thr, body)
	}
	b.StopTimer()
	thr.Sync()
}

func atomicTx(thr *Thread, body TaskFunc) { _ = thr.Atomic(body) }

func submitWaitTx(thr *Thread, body TaskFunc) {
	h, _ := thr.Submit(body)
	h.Wait()
}

// BenchmarkThreadCommitSmallTx is the one-task Atomic: TLSTM-1, run on
// the thread's solo task on the calling goroutine through the kit's
// driver and commit — no worker, serial, ring slot or latch. Its
// reference is stm's BenchmarkRuntimeAtomicPooled.
func BenchmarkThreadCommitSmallTx(b *testing.B) {
	benchSmallTx(b, Config{SpecDepth: 2}, atomicTx)
}

// BenchmarkThreadCommitSmallTxAdaptive is the same transaction with
// the execution-mode controller armed (Policy adaptive). The ladder's
// bookkeeping — attempt escalation checks, the per-commit outcome fold,
// the window poll — rides the existing counters, so arming it must not
// cost an allocation: allocs/op stays 0.
func BenchmarkThreadCommitSmallTxAdaptive(b *testing.B) {
	benchSmallTx(b, Config{SpecDepth: 2, Mode: mode.Config{Policy: mode.Adaptive}}, atomicTx)
}

// BenchmarkThreadCommitSmallTxShipped is Submit+Wait under the default
// policy: the task crosses to a worker and the commit wakes the
// submitter back. The gap to BenchmarkThreadCommitSmallTx is the price
// of the two hand-offs and the pipeline machinery (serial, ring slot,
// rendezvous, retire epoch, latch publish) a one-task Atomic no longer
// pays; this is the benchmark that keeps the ring path allocation-free.
func BenchmarkThreadCommitSmallTxShipped(b *testing.B) {
	benchSmallTx(b, Config{SpecDepth: 2}, submitWaitTx)
}

// BenchmarkThreadCommitShippedSharedPair is Submit+Wait of two tasks
// that both increment one word: the second reads the first's value from
// the redo chain and stacks its own entry on it, and the ring commit
// locks the pair once, publishes both values in program order and drops
// the chain at the second task's entry, its head. allocs/op must be 0.
func BenchmarkThreadCommitShippedSharedPair(b *testing.B) {
	benchSmallTx(b, Config{SpecDepth: 2}, func(thr *Thread, body TaskFunc) {
		h, _ := thr.Submit(body, body)
		h.Wait()
	})
}

// BenchmarkThreadCommitSmallTxFused is bank_hot's transaction on one
// thread: two bodies moving an amount along a three-account path, the
// second reading what the first wrote. Its overlap is far below
// shipOverlap, so after warm-up Atomic runs both bodies fused on the
// solo task. allocs/op must be 0.
func BenchmarkThreadCommitSmallTxFused(b *testing.B) {
	rt := New(Config{SpecDepth: 2})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	acct := d.Alloc(3)
	d.Store(acct, 1<<40)
	move := func(from, to tm.Addr) TaskFunc {
		return func(t *Task) {
			if f := t.Load(from); f > 0 {
				t.Store(from, f-1)
				t.Store(to, t.Load(to)+1)
			}
		}
	}
	f1, f2 := move(acct, acct+1), move(acct+1, acct+2)
	for i := 0; i < 4*rt.SpecDepth(); i++ {
		_ = thr.Atomic(f1, f2) // warm: fuse, one retired entry per descriptor ring
	}
	thr.Sync()
	before := thr.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = thr.Atomic(f1, f2)
	}
	b.StopTimer()
	thr.Sync()
	if st := thr.Stats().Minus(before); st.TxFused != st.TxCommitted {
		b.Fatalf("TxFused = %d of %d commits: the fused path was not the one measured", st.TxFused, st.TxCommitted)
	}
}

// BenchmarkThreadCommitReadOnlyTx measures a whole single-task
// read-only transaction round-trip. No write-lock entry is created, so
// a warmed round-trip must be 0 allocs/op — the pooled scheduler's
// acceptance number (asserted in alloc_norace_test.go).
func BenchmarkThreadCommitReadOnlyTx(b *testing.B) {
	rt := New(Config{SpecDepth: 2})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	var sink uint64
	body := func(t *Task) { sink += t.Load(a) }
	_ = thr.Atomic(body)
	thr.Sync()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = thr.Atomic(body)
	}
	b.StopTimer()
	thr.Sync()
}

// BenchmarkEntryReclaimHorizonCheck isolates the reclamation machinery
// the writer hot path gained: the committed-frontier load, the
// quiescence-ring head check, retirement stamping and the Seed reset —
// one full retire/reclaim cycle per op, no transaction around it. The
// gap to BenchmarkEntryFreshAlloc is what recycling saves per entry;
// the cycle's own ns/op is what the horizon check costs.
func BenchmarkEntryReclaimHorizonCheck(b *testing.B) {
	var latch sched.Latch
	var wl txlog.WriteLog
	tbl := locktable.NewTable(8)
	owner := &locktable.OwnerRef{ThreadID: 0}
	p := tbl.For(1)
	const depth = 2
	// Warm the ring with one retired, already-quiescent entry.
	wl.Append(wl.NewEntryAt(owner, 0, p, 1, 0, latch.Seq()))
	wl.Retire(0+depth, 1, latch.Seq())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial := int64(i + 1)
		latch.Publish(serial + depth) // advance the frontier past the stamp
		e := wl.NewEntryAt(owner, serial, p, 1, uint64(i), latch.Seq())
		wl.Append(e)
		wl.Retire(serial+depth, serial, latch.Seq())
	}
}

// BenchmarkEntryFreshAlloc is the no-reclamation baseline for the
// benchmark above: a heap-fresh entry per op.
func BenchmarkEntryFreshAlloc(b *testing.B) {
	tbl := locktable.NewTable(8)
	owner := &locktable.OwnerRef{ThreadID: 0}
	p := tbl.For(1)
	var sink *locktable.WEntry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = locktable.NewEntry(owner, int64(i), p, 1, uint64(i))
	}
	_ = sink
}

// BenchmarkSubmitPipelined measures Submit throughput with the pipeline
// kept full (wait only every SpecDepth transactions): the scheduler's
// steady-state dispatch cost with speculation overlap.
func BenchmarkSubmitPipelined(b *testing.B) {
	const depth = 4
	rt := New(Config{SpecDepth: depth})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	var sink uint64
	body := func(t *Task) { sink += t.Load(a) }
	_ = thr.Atomic(body)
	thr.Sync()
	b.ReportAllocs()
	b.ResetTimer()
	var last TxHandle
	for i := 0; i < b.N; i++ {
		h, _ := thr.Submit(body)
		if i%depth == depth-1 {
			h.Wait()
		}
		last = h
	}
	last.Wait()
	b.StopTimer()
	thr.Sync()
}

// loadCommittedWords is the read set of BenchmarkLoadCommitted, here and
// in internal/stm: both run tm.SumWords over this many words.
const loadCommittedWords = 512

// BenchmarkLoadCommitted prices the committed-read fast lane: one
// one-task Atomic of 512 loads of unlocked words (tm.SumWords, the body
// internal/stm's benchmark of the same name runs), so ns/op ÷ 512 is
// comparable per access across the two runtimes. allocs/op must be 0.
func BenchmarkLoadCommitted(b *testing.B) {
	rt := New(Config{SpecDepth: 2})
	defer rt.Close()
	thr := rt.NewThread()
	base := rt.Direct().Alloc(loadCommittedWords)
	var sink uint64
	body := func(t *Task) { sink += tm.SumWords(t, base, loadCommittedWords) }
	_ = thr.Atomic(body) // grow the read log
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = thr.Atomic(body)
	}
	b.StopTimer()
	thr.Sync()
	_ = sink
}
