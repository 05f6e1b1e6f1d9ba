//go:build !race

package stm_test

import (
	"testing"

	"tlstm/internal/stm"
	"tlstm/internal/tm"
)

// Zero-allocation assertions for the SwissTM hot paths. They live
// behind !race because the race detector's instrumentation perturbs
// allocation counting.

func TestWorkerAtomicReadWriteZeroAlloc(t *testing.T) {
	w, _, body := setupWorker(t)
	if n := testing.AllocsPerRun(200, func() { w.Atomic(body) }); n != 0 {
		t.Fatalf("warmed read/write Atomic allocates %.1f objects/op, want 0", n)
	}
}

func TestWorkerAtomicReadOnlyZeroAlloc(t *testing.T) {
	w, addrs, _ := setupWorker(t)
	var sink uint64
	body := func(tx *stm.Tx) {
		for _, a := range addrs {
			sink += tx.Load(a)
		}
	}
	w.Atomic(body)
	if n := testing.AllocsPerRun(200, func() { w.Atomic(body) }); n != 0 {
		t.Fatalf("warmed read-only Atomic allocates %.1f objects/op, want 0", n)
	}
}

// TestWorkerAtomicROMultiVersionZeroAlloc asserts the headline property
// of the wait-free read path: a warmed declared read-only transaction
// on a multi-version runtime allocates nothing — even with a writer
// committing between scans, which forces the reader through the version
// ring (Publish and ReadAt are allocation-free by construction).
func TestWorkerAtomicROMultiVersionZeroAlloc(t *testing.T) {
	writer, reader, addrs := setupMVWorkers(t)
	var sink uint64
	scan := func(tx *stm.Tx) {
		for _, a := range addrs {
			sink += tx.Load(a)
		}
	}
	inc := func(tx *stm.Tx) {
		for _, a := range addrs {
			tx.Store(a, tx.Load(a)+1)
		}
	}
	writer.Atomic(inc)
	reader.AtomicRO(scan)
	if n := testing.AllocsPerRun(200, func() {
		writer.Atomic(inc)
		reader.AtomicRO(scan)
	}); n != 0 {
		t.Fatalf("warmed mv read-only Atomic (with interleaved writer) allocates %.1f objects/op, want 0", n)
	}
	_ = sink
}

// TestWorkerAtomicZeroAllocAboveScanMax: a warmed writer commit of 128
// pairs (4× the txlog scanMax) runs the commit scratch on its map index
// and still allocates nothing.
func TestWorkerAtomicZeroAllocAboveScanMax(t *testing.T) {
	const words = 128
	rt := stm.New()
	base := rt.Direct().Alloc(words)
	w := rt.NewWorker()
	body := func(tx *stm.Tx) {
		for i := tm.Addr(0); i < words; i++ {
			tx.Store(base+i, tx.Load(base+i)+1)
		}
	}
	w.Atomic(body) // warm: logs, entry pool and the scratch's map
	if n := testing.AllocsPerRun(50, func() { w.Atomic(body) }); n != 0 {
		t.Fatalf("warmed %d-pair writer Atomic allocates %.1f objects/op, want 0", words, n)
	}
}

func TestRuntimeAtomicPooledZeroAlloc(t *testing.T) {
	rt := stm.New()
	d := rt.Direct()
	a := d.Alloc(1)
	body := func(tx *stm.Tx) { tx.Store(a, tx.Load(a)+1) }
	rt.Atomic(nil, body)
	if n := testing.AllocsPerRun(200, func() { rt.Atomic(nil, body) }); n != 0 {
		t.Fatalf("pooled Runtime.Atomic allocates %.1f objects/op, want 0", n)
	}
}
