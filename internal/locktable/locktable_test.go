package locktable

import (
	"testing"

	"tlstm/internal/tm"
)

func TestMappingStableAndInRange(t *testing.T) {
	tbl := NewTable(8)
	if tbl.Len() != 256 {
		t.Fatalf("Len = %d, want 256", tbl.Len())
	}
	for a := tm.Addr(1); a < 10_000; a += 37 {
		p1 := tbl.For(a)
		p2 := tbl.For(a)
		if p1 != p2 {
			t.Fatalf("mapping not stable for %#x", a)
		}
	}
}

func TestCollisionsShareAPair(t *testing.T) {
	tbl := NewTable(8)
	// Find two distinct addresses hashing to the same slot; they must
	// share a pair (false conflicts are allowed, missed ones are not).
	a := tm.Addr(5)
	var b tm.Addr
	for c := a + 1; ; c++ {
		if tbl.Index(c) == tbl.Index(a) {
			b = c
			break
		}
	}
	if tbl.For(a) != tbl.For(b) {
		t.Fatalf("addresses %#x and %#x share slot %d but not a pair", a, b, tbl.Index(a))
	}
	if tbl.For(a) == tbl.For(a+1) {
		t.Fatal("adjacent addresses should map to different pairs")
	}
}

// TestStridedDistribution is the directed before/after test for the
// Fibonacci mixing hash: a power-of-two-strided scan (the access
// pattern of an array-of-structs walk) collapses onto len/stride slots
// under the old low-bit mask, while the multiplicative hash keeps the
// occupied-slot count near the table size.
func TestStridedDistribution(t *testing.T) {
	const bits = 10
	tbl := NewTable(bits)
	size := uint64(tbl.Len())
	for _, stride := range []uint64{8, 64, 256} {
		n := size // one strided scan of table-size addresses
		masked := make(map[uint64]int)
		hashed := make(map[uint64]int)
		for i := uint64(0); i < n; i++ {
			a := tm.Addr(i * stride)
			masked[uint64(a)&(size-1)]++
			hashed[tbl.Index(a)]++
		}
		// The mask folds the scan onto size/stride slots exactly.
		if got, want := uint64(len(masked)), size/stride; got != want {
			t.Fatalf("stride %d: mask baseline occupies %d slots, want %d", stride, got, want)
		}
		// The hash must spread the same scan over several times as
		// many slots as the mask (an ideal random spread occupies
		// ~63% of the table; a multiplicative hash on an arithmetic
		// progression lands a bit under that, ~40-60%).
		if got := uint64(len(hashed)); got < size/3 || got < 3*uint64(len(masked)) {
			t.Fatalf("stride %d: fib hash occupies %d of %d slots (mask: %d), want >= %d and >= 3x mask",
				stride, got, size, len(masked), size/3)
		}
		// Worst-case pile-up: the mask piles stride addresses per slot.
		maxHashed := 0
		for _, c := range hashed {
			if c > maxHashed {
				maxHashed = c
			}
		}
		if uint64(maxHashed) >= stride {
			t.Fatalf("stride %d: fib hash piles %d addresses on one slot (mask baseline: %d)",
				stride, maxHashed, stride)
		}
	}
}

func TestNewLayoutRejectsBadBits(t *testing.T) {
	for _, bad := range []int{MinBits - 1, MaxBits + 1, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewLayout(%d) did not panic", bad)
				}
			}()
			NewLayout(bad)
		}()
	}
	for _, good := range []int{MinBits, MaxBits} {
		if l := NewLayout(good); l.Slots() != 1<<good {
			t.Fatalf("NewLayout(%d).Slots() = %d, want %d", good, l.Slots(), 1<<good)
		}
	}
}

func TestEntryLookupUpdate(t *testing.T) {
	e := &WEntry{}
	if _, hit := e.Lookup(7); hit {
		t.Fatal("empty entry should miss")
	}
	e.Update(7, 100)
	e.Update(8, 200)
	e.Update(7, 300) // overwrite
	if v, hit := e.Lookup(7); !hit || v != 300 {
		t.Fatalf("Lookup(7) = %d,%v; want 300,true", v, hit)
	}
	if v, hit := e.Lookup(8); !hit || v != 200 {
		t.Fatalf("Lookup(8) = %d,%v; want 200,true", v, hit)
	}
	if len(e.Words) != 2 {
		t.Fatalf("Update must overwrite in place; got %d words", len(e.Words))
	}
}

func TestChainPrevLinks(t *testing.T) {
	tbl := NewTable(8)
	p := tbl.For(1)
	e1 := &WEntry{Serial: 1, Pair: p}
	e2 := &WEntry{Serial: 2, Pair: p}
	if !p.W.CompareAndSwap(nil, e1) {
		t.Fatal("install e1")
	}
	e2.Prev.Store(e1)
	if !p.W.CompareAndSwap(e1, e2) {
		t.Fatal("install e2")
	}
	if got := p.W.Load(); got != e2 {
		t.Fatal("head should be e2")
	}
	if got := p.W.Load().Prev.Load(); got != e1 {
		t.Fatal("prev should be e1")
	}
}

func TestNewTablePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTable(0) did not panic")
		}
	}()
	NewTable(0)
}

// ---- FreeRing: the horizon-gated entry pool behind TLSTM's epoch-based
// entry reclamation. These unit tests pin its contract in isolation; the
// end-to-end safety proof lives in internal/core/reclaim_test.go.

func ringOwner() *OwnerRef { return &OwnerRef{ThreadID: 1} }

func TestFreeRingHorizonGatesReuse(t *testing.T) {
	var r FreeRing
	o := ringOwner()
	e := NewEntry(o, 1, nil, 10, 100)
	r.Retire(e, 5, 1, 0) // reusable only once the frontier reaches 5
	for _, h := range []int64{0, 3, 4} {
		if got := r.Get(h); got != nil {
			t.Fatalf("Get(horizon=%d) returned an entry with retirement serial 5", h)
		}
	}
	if reclaims, stalls := r.TakeCounts(); reclaims != 0 || stalls != 3 {
		t.Fatalf("counts after 3 stalled Gets = (%d, %d), want (0, 3)", reclaims, stalls)
	}
	if got := r.Get(5); got != e {
		t.Fatalf("Get(horizon=5) = %v, want the retired entry", got)
	}
	if reclaims, stalls := r.TakeCounts(); reclaims != 1 || stalls != 0 {
		t.Fatalf("counts after matured Get = (%d, %d), want (1, 0)", reclaims, stalls)
	}
	if got := r.Get(100); got != nil {
		t.Fatal("empty ring must report nil, not recycle twice")
	}
}

func TestFreeRingFIFOAndPromotion(t *testing.T) {
	var r FreeRing
	o := ringOwner()
	e1 := NewEntry(o, 1, nil, 1, 1)
	e2 := NewEntry(o, 2, nil, 2, 2)
	e3 := NewEntry(o, 3, nil, 3, 3)
	r.Retire(e1, 3, 1, 0)
	r.Retire(e2, 4, 2, 0)
	// Retiring e3 with a horizon past e1 and e2 promotes both to the
	// free tier ("horizon checked every retire").
	r.Retire(e3, 9, 3, 4)
	if free, q := r.Free(), r.Quiescing(); free != 2 || q != 1 {
		t.Fatalf("after promotion: free=%d quiesce=%d, want 2, 1", free, q)
	}
	// Free tier serves LIFO; the quiesce head stays gated.
	if got := r.Get(4); got != e2 {
		t.Fatalf("first Get = entry serial %d, want e2", got.Serial)
	}
	if got := r.Get(4); got != e1 {
		t.Fatalf("second Get = entry serial %d, want e1", got.Serial)
	}
	if got := r.Get(8); got != nil {
		t.Fatal("e3 (retirement serial 9) must stay gated at horizon 8")
	}
	if got := r.Get(9); got != e3 {
		t.Fatal("e3 must mature at horizon 9")
	}
}

func TestFreeRingCapDropsOverflow(t *testing.T) {
	var r FreeRing
	r.SetCap(1)
	o := ringOwner()
	e1 := NewEntry(o, 1, nil, 1, 1)
	e2 := NewEntry(o, 2, nil, 2, 2)
	r.Retire(e1, 5, 1, 0)
	r.Retire(e2, 6, 2, 0) // ring full of immature entries: e2 drops to the GC
	if q := r.Quiescing(); q != 1 {
		t.Fatalf("quiescing = %d, want 1 (cap)", q)
	}
	if got := r.Get(10); got != e1 {
		t.Fatal("the capped ring must still serve its head")
	}
	if got := r.Get(10); got != nil {
		t.Fatal("the dropped entry must not surface")
	}
	// With the head matured, a Retire at cap promotes it first instead
	// of dropping the newcomer.
	e3 := NewEntry(o, 3, nil, 3, 3)
	e4 := NewEntry(o, 4, nil, 4, 4)
	r.Retire(e3, 7, 3, 0)
	r.Retire(e4, 8, 4, 7)
	if free, q := r.Free(), r.Quiescing(); free != 1 || q != 1 {
		t.Fatalf("promote-at-retire: free=%d quiesce=%d, want 1, 1", free, q)
	}
}

func TestFreeRingPutBypassesHorizon(t *testing.T) {
	var r FreeRing
	o := ringOwner()
	e := NewEntry(o, 1, nil, 1, 1)
	e.Prev.Store(NewEntry(o, 0, nil, 0, 0))
	r.Put(e) // never-published entry: no quiescence needed
	got := r.Get(0)
	if got != e {
		t.Fatal("Put entry must be immediately reusable")
	}
	if got.Prev.Load() != nil {
		t.Fatal("Put must drop the unpublished entry's chain link")
	}
}

func TestFreeRingOnReclaimHook(t *testing.T) {
	var r FreeRing
	var gotAt, gotEpoch int64
	calls := 0
	r.OnReclaim = func(at, epoch int64) { gotAt, gotEpoch = at, epoch; calls++ }
	o := ringOwner()
	r.Put(NewEntry(o, 0, nil, 0, 0))
	if r.Get(0) == nil || calls != 0 {
		t.Fatal("free-tier reuse must not invoke the audit hook (nothing quiesced)")
	}
	r.Retire(NewEntry(o, 1, nil, 1, 1), 5, 7, 0)
	if r.Get(5) == nil {
		t.Fatal("matured entry must be served")
	}
	if calls != 1 || gotAt != 5 || gotEpoch != 7 {
		t.Fatalf("hook saw (calls=%d at=%d epoch=%d), want (1, 5, 7)", calls, gotAt, gotEpoch)
	}
}
