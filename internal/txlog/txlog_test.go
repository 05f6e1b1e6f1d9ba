package txlog

import (
	"sync/atomic"
	"testing"

	"tlstm/internal/locktable"
	"tlstm/internal/tm"
)

func TestWriteLogRecycleReusesEntries(t *testing.T) {
	tbl := locktable.NewTable(8)
	owner := &locktable.OwnerRef{ThreadID: -1}
	var wl WriteLog

	e1 := wl.NewEntry(owner, 0, tbl.For(1), 1, 10)
	e2 := wl.NewEntry(owner, 0, tbl.For(2), 2, 20)
	e2.Prev.Store(e1)
	wl.Append(e1)
	wl.Append(e2)
	if wl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", wl.Len())
	}
	wl.Recycle()
	if wl.Len() != 0 {
		t.Fatalf("Len after Recycle = %d, want 0", wl.Len())
	}

	// The pool must hand the same entries back, re-initialized.
	r1 := wl.NewEntry(owner, 7, tbl.For(3), 3, 30)
	r2 := wl.NewEntry(owner, 7, tbl.For(4), 4, 40)
	if (r1 != e1 && r1 != e2) || (r2 != e1 && r2 != e2) || r1 == r2 {
		t.Fatal("Recycle must feed NewEntry from the retired entries")
	}
	for _, e := range []*locktable.WEntry{r1, r2} {
		if e.Owner != owner || e.Serial != 7 || e.Prev.Load() != nil {
			t.Fatalf("recycled entry not re-initialized: %+v", e)
		}
		if len(e.Words) != 1 {
			t.Fatalf("recycled entry Words = %v, want exactly the new word", e.Words)
		}
	}
	if v, ok := r1.Lookup(3); !ok || v != 30 {
		t.Fatalf("recycled entry Lookup(3) = %d,%v", v, ok)
	}
}

func TestWriteLogResetDoesNotRecycle(t *testing.T) {
	tbl := locktable.NewTable(8)
	owner := &locktable.OwnerRef{}
	var wl WriteLog
	e := wl.NewEntry(owner, 0, tbl.For(1), 1, 1)
	wl.Append(e)
	wl.Reset()
	if got := wl.NewEntry(owner, 0, tbl.For(1), 1, 1); got == e {
		t.Fatal("Reset must not return entries to the pool (TLSTM chain identity)")
	}
}

func TestWriteLogReleaseReturnsLoserToPool(t *testing.T) {
	tbl := locktable.NewTable(8)
	owner := &locktable.OwnerRef{}
	var wl WriteLog
	e := wl.NewEntry(owner, 0, tbl.For(1), 1, 1)
	wl.Release(e) // CAS lost: entry never installed
	if got := wl.NewEntry(owner, 0, tbl.For(2), 2, 2); got != e {
		t.Fatal("released entry must be reused")
	}
}

// distinctPairs returns n distinct pairs of tbl, in address order.
func distinctPairs(tbl *locktable.Table, n int) []*locktable.Pair {
	seen := make(map[*locktable.Pair]bool, n)
	ps := make([]*locktable.Pair, 0, n)
	for a := tm.Addr(1); len(ps) < n; a++ {
		if p := tbl.For(a); !seen[p] {
			seen[p] = true
			ps = append(ps, p)
		}
	}
	return ps
}

// headEntries installs one entry on each pair of ps, as the head of its
// chain, and returns them in the same order.
func headEntries(ps []*locktable.Pair) []*locktable.WEntry {
	owner := &locktable.OwnerRef{}
	es := make([]*locktable.WEntry, len(ps))
	for i, p := range ps {
		es[i] = locktable.NewEntry(owner, 1, p, 0, 0)
		p.W.Store(es[i])
	}
	return es
}

// stackLater puts a later transaction's entry on top of p's chain.
func stackLater(p *locktable.Pair) *locktable.WEntry {
	e := locktable.NewEntry(&locktable.OwnerRef{}, 2, p, 0, 0)
	e.Prev.Store(p.W.Load())
	p.W.Store(e)
	return e
}

// TestCommitScratchLockRestorePublish runs the scratch's whole contract
// on both sides of the scan/map switch: commits of 1, scanMax−1, scanMax,
// scanMax+1 and 4·scanMax pairs, each pair offered twice, every odd pair
// stacked on by a later transaction before Release.
func TestCommitScratchLockRestorePublish(t *testing.T) {
	tbl := locktable.NewTable(12)
	for _, n := range []int{1, scanMax - 1, scanMax, scanMax + 1, 4 * scanMax} {
		all := distinctPairs(tbl, n+1)
		ps, outside := all[:n], all[n]
		for i, p := range all {
			p.R.Store(uint64(100 + i))
		}

		es := headEntries(ps)
		var cs CommitScratch
		for i, e := range es {
			if !cs.LockPair(e) {
				t.Fatalf("n=%d: first LockPair of pair %d must report newly locked", n, i)
			}
			if cs.LockPair(es[i/2]) {
				t.Fatalf("n=%d: duplicate LockPair of pair %d (after %d locked) must report already locked", n, i/2, i+1)
			}
		}
		if cs.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, cs.Len())
		}
		for i, p := range cs.Pairs() {
			if p != ps[i] {
				t.Fatalf("n=%d: Pairs()[%d] is not the %d-th locked pair: Pairs must keep locking order", n, i, i)
			}
		}
		for i, p := range ps {
			if p.R.Load() != locktable.Locked {
				t.Fatalf("n=%d: LockPair must install the Locked sentinel (pair %d)", n, i)
			}
			if v, ok := cs.Saved(p); !ok || v != uint64(100+i) {
				t.Fatalf("n=%d: Saved(pair %d) = %d,%v want %d,true", n, i, v, ok, 100+i)
			}
		}
		if _, ok := cs.Saved(outside); ok {
			t.Fatalf("n=%d: Saved must miss on pairs this commit did not lock", n)
		}

		for i := 1; i < n; i += 2 {
			stackLater(ps[i])
		}
		cs.Release(7)
		for i, p := range ps {
			if cs.Released(p) != (i%2 == 0) {
				t.Fatalf("n=%d: Released(pair %d) = %v", n, i, !(i%2 == 0))
			}
			if p.R.Load() != 7 {
				t.Fatalf("n=%d: Release left pair %d at version %d, want 7", n, i, p.R.Load())
			}
			if head := p.W.Load(); (head == nil) != (i%2 == 0) {
				t.Fatalf("n=%d: pair %d head %p after Release: only our own heads may be dropped", n, i, head)
			}
		}
		if cs.Released(outside) {
			t.Fatalf("n=%d: Released must miss on pairs this commit did not lock", n)
		}

		cs.Restore()
		for i, p := range all {
			if p.R.Load() != uint64(100+i) {
				t.Fatalf("n=%d: after Restore pair %d holds %d, want %d", n, i, p.R.Load(), 100+i)
			}
		}

		cs.Reset()
		cs.LockPair(es[n-1])
		for _, p := range cs.Pairs() {
			p.R.Store(42)
		}
		for i, p := range all {
			want := uint64(100 + i)
			if i == n-1 {
				want = 42
			}
			if p.R.Load() != want {
				t.Fatalf("n=%d: publish via Pairs must touch exactly the locked pairs (pair %d = %d)", n, i, p.R.Load())
			}
		}
	}
}

// TestCommitScratchResetDropsStaleIndex: a commit that outgrew the scan
// leaves a populated map behind; after Reset a small commit must never
// be answered from it, and the next large commit must rebuild it against
// its own positions.
func TestCommitScratchResetDropsStaleIndex(t *testing.T) {
	tbl := locktable.NewTable(12)
	big := distinctPairs(tbl, 4*scanMax)
	for i, p := range big {
		p.R.Store(uint64(100 + i))
	}
	es := headEntries(big)
	var cs CommitScratch
	for _, e := range es {
		cs.LockPair(e)
	}
	cs.Release(7)
	cs.Restore()

	cs.Reset()
	for _, e := range []*locktable.WEntry{es[3], es[0]} {
		if !cs.LockPair(e) {
			t.Fatal("after Reset, a pair of the previous commit must lock anew")
		}
	}
	if v, ok := cs.Saved(big[0]); !ok || v != 100 {
		t.Fatalf("Saved(big[0]) = %d,%v want 100,true", v, ok)
	}
	if cs.Released(big[3]) || cs.Released(big[0]) {
		t.Fatal("Released must start false in a new commit")
	}
	for i, p := range big[4:] {
		if _, ok := cs.Saved(p); ok || cs.Released(p) {
			t.Fatalf("pair %d of the previous commit answered from a stale index", i+4)
		}
	}
	cs.Restore()

	// Large again, half the pairs in reverse order: positions differ from
	// the first commit's and the other half must stay unknown.
	cs.Reset()
	half := big[:2*scanMax]
	hes := headEntries(half)
	for i := len(half) - 1; i >= 0; i-- {
		if !cs.LockPair(hes[i]) {
			t.Fatalf("LockPair(big[%d]) must report newly locked", i)
		}
	}
	if cs.LockPair(hes[0]) {
		t.Fatal("duplicate LockPair must hit the rebuilt index")
	}
	for i, p := range half {
		if i != 1 {
			stackLater(p)
		}
	}
	cs.Release(9)
	for i, p := range half {
		if v, ok := cs.Saved(p); !ok || v != uint64(100+i) {
			t.Fatalf("Saved(big[%d]) = %d,%v want %d,true", i, v, ok, 100+i)
		}
		if cs.Released(p) != (i == 1) {
			t.Fatalf("Released(big[%d]) = %v", i, i != 1)
		}
	}
	for i, p := range big[len(half):] {
		if _, ok := cs.Saved(p); ok {
			t.Fatalf("pair %d not in this commit answered from a stale index", len(half)+i)
		}
	}
	cs.Restore()
}

// TestCommitScratchReleaseFollowsNewestEntry: the entries of a
// multi-task commit are offered in program order, so a pair two tasks
// wrote is released at the later task's entry — the head of its chain —
// and a pair whose chain a later transaction stacked on keeps it.
func TestCommitScratchReleaseFollowsNewestEntry(t *testing.T) {
	tbl := locktable.NewTable(8)
	ps := distinctPairs(tbl, 2)
	shared, stacked := ps[0], ps[1]
	owner := &locktable.OwnerRef{}
	first := locktable.NewEntry(owner, 1, shared, 1, 1)
	second := locktable.NewEntry(owner, 2, shared, 1, 2)
	second.Prev.Store(first)
	shared.W.Store(second)
	mine := headEntries([]*locktable.Pair{stacked})[0]
	later := stackLater(stacked)

	var cs CommitScratch
	for _, e := range []*locktable.WEntry{first, mine, second} {
		cs.LockPair(e)
	}
	if cs.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (one lock per pair)", cs.Len())
	}
	cs.Release(5)
	if shared.W.Load() != nil || !cs.Released(shared) {
		t.Fatal("a pair headed by the commit's newest entry must be dropped and marked released")
	}
	if stacked.W.Load() != later || cs.Released(stacked) {
		t.Fatal("a chain a later transaction stacked on must stay, unmarked")
	}
	if shared.R.Load() != 5 || stacked.R.Load() != 5 {
		t.Fatal("Release must publish the commit version on every locked pair")
	}
}

func TestReadLogAppendReset(t *testing.T) {
	tbl := locktable.NewTable(8)
	var rl ReadLog
	rl.Append(tbl.For(1), 3, nil)
	rl.Append(tbl.For(2), NoVersion, nil)
	if rl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rl.Len())
	}
	es := rl.Entries()
	if es[0].Version != 3 || es[1].Version != NoVersion {
		t.Fatalf("entries = %+v", es)
	}
	rl.Reset()
	if rl.Len() != 0 {
		t.Fatal("Reset must empty the log")
	}
}

func TestLockLogAppendReset(t *testing.T) {
	var l1, l2 atomic.Uint64
	var ll LockLog
	ll.Append(&l1)
	ll.Append(&l2)
	if ll.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ll.Len())
	}
	locks := ll.Locks()
	if locks[0] != &l1 || locks[1] != &l2 {
		t.Fatal("Locks must expose entries in append order")
	}
	ll.Reset()
	if ll.Len() != 0 {
		t.Fatal("Reset must empty the log")
	}
}

func TestLockSetRestorePublish(t *testing.T) {
	var l1, l2 atomic.Uint64
	l1.Store(1)
	l2.Store(2)
	const locked = ^uint64(0)

	var ls LockSet
	v1 := l1.Swap(locked)
	ls.Add(&l1, v1)
	if !ls.Holds(&l1) || ls.Holds(&l2) {
		t.Fatal("Holds membership wrong")
	}
	ls.Restore()
	if l1.Load() != 1 {
		t.Fatalf("Restore: l1 = %d, want 1", l1.Load())
	}
	if ls.Len() != 0 || ls.Holds(&l1) {
		t.Fatal("Restore must empty the set")
	}

	ls.Add(&l1, l1.Swap(locked))
	ls.Add(&l2, l2.Swap(locked))
	ls.Publish(7)
	if l1.Load() != 7 || l2.Load() != 7 {
		t.Fatal("Publish must stamp the new version")
	}
	if ls.Len() != 0 {
		t.Fatal("Publish must empty the set")
	}
}

func TestWriteSetPutGetSorted(t *testing.T) {
	var ws WriteSet
	if _, ok := ws.Get(1); ok {
		t.Fatal("empty set must miss")
	}
	ws.Put(30, 3)
	ws.Put(10, 1)
	ws.Put(20, 2)
	ws.Put(10, 11) // overwrite
	if ws.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ws.Len())
	}
	if v, ok := ws.Get(10); !ok || v != 11 {
		t.Fatalf("Get(10) = %d,%v want 11,true", v, ok)
	}
	addrs := ws.SortedAddrs()
	if len(addrs) != 3 || addrs[0] != 10 || addrs[1] != 20 || addrs[2] != 30 {
		t.Fatalf("SortedAddrs = %v", addrs)
	}
	sum := uint64(0)
	ws.Range(func(a tm.Addr, v uint64) { sum += v })
	if sum != 11+2+3 {
		t.Fatalf("Range sum = %d", sum)
	}
	ws.Reset()
	if ws.Len() != 0 {
		t.Fatal("Reset must empty the set")
	}
}

func TestUndoLogOrder(t *testing.T) {
	var ul UndoLog
	ul.Append(1, 10)
	ul.Append(2, 20)
	recs := ul.Recs()
	if len(recs) != 2 || recs[0] != (UndoRec{1, 10}) || recs[1] != (UndoRec{2, 20}) {
		t.Fatalf("recs = %+v", recs)
	}
	ul.Reset()
	if ul.Len() != 0 {
		t.Fatal("Reset must empty the log")
	}
}
