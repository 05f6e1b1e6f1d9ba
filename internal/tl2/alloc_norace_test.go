//go:build !race

package tl2

import (
	"testing"

	"tlstm/internal/tm"
)

// The pooled TL2 descriptor must make a warmed Atomic — including the
// sorted-lock commit — allocation-free. (!race: AllocsPerRun is not
// meaningful under the race detector.)
func TestAtomicZeroAllocWarmed(t *testing.T) {
	rt := New(8)
	d := rt.Direct()
	addrs := make([]tm.Addr, 8)
	for i := range addrs {
		addrs[i] = d.Alloc(1)
	}
	body := func(tx *Tx) {
		for _, a := range addrs {
			tx.Store(a, tx.Load(a)+1)
		}
	}
	rt.Atomic(nil, body)
	if n := testing.AllocsPerRun(200, func() { rt.Atomic(nil, body) }); n != 0 {
		t.Fatalf("warmed TL2 Atomic allocates %.1f objects/op, want 0", n)
	}
}

// TestAtomicROMultiVersionZeroAlloc: a warmed declared read-only
// transaction on the multi-version path allocates nothing, on both arms
// of the probe (txrt.Desc.ReadMV) — the first word from memory, the
// rest from the version ring after a writer commits in the middle of
// the scan.
func TestAtomicROMultiVersionZeroAlloc(t *testing.T) {
	rt := New(8, WithMultiVersion(2))
	d := rt.Direct()
	addrs := make([]tm.Addr, 8)
	for i := range addrs {
		addrs[i] = d.Alloc(1)
	}
	var rs, ws Stats
	var sink uint64
	inc := func(tx *Tx) {
		for _, a := range addrs {
			tx.Store(a, tx.Load(a)+1)
		}
	}
	scan := func(tx *Tx) {
		sink += tx.Load(addrs[0])
		rt.Atomic(&ws, inc)
		for _, a := range addrs[1:] {
			sink += tx.Load(a)
		}
	}
	const runs = 200
	rt.AtomicRO(&rs, scan)
	if n := testing.AllocsPerRun(runs, func() { rt.AtomicRO(&rs, scan) }); n != 0 {
		t.Fatalf("warmed multi-version AtomicRO allocates %.1f objects/op, want 0", n)
	}
	// Scans: ours, AllocsPerRun's warm-up, then runs.
	if want := uint64(len(addrs)) * (runs + 2); rs.MVReads != want || rs.MVMisses != 0 {
		t.Fatalf("MVReads=%d MVMisses=%d, want %d and 0: the scans left the multi-version path", rs.MVReads, rs.MVMisses, want)
	}
	_ = sink
}
