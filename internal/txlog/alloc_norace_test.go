//go:build !race

package txlog

import (
	"testing"

	"tlstm/internal/locktable"
)

// The substrate's own zero-alloc guarantees: warmed logs and scratch
// buffers must be reusable without touching the heap. These are the
// primitives the runtimes' commit paths are built from, so TLSTM's
// commit-time bookkeeping (thread-owned CommitScratch) is covered here
// even though its per-transaction setup is not allocation-free.
func TestWarmedPrimitivesZeroAlloc(t *testing.T) {
	tbl := locktable.NewTable(8)
	owner := &locktable.OwnerRef{}

	var cs CommitScratch
	pairs := []*locktable.Pair{tbl.For(1), tbl.For(2), tbl.For(3)}
	heads := headEntries(pairs)
	warm := func() {
		cs.Reset()
		for _, e := range heads {
			cs.LockPair(e)
		}
		for _, p := range pairs {
			if _, ok := cs.Saved(p); !ok {
				t.Fatal("Saved must hit")
			}
		}
		cs.Restore()
	}
	warm()
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Fatalf("warmed CommitScratch cycle allocates %.1f objects/op, want 0", n)
	}

	var wl WriteLog
	wlCycle := func() {
		for i := 0; i < 4; i++ {
			e := wl.NewEntry(owner, 0, pairs[0], 1, uint64(i))
			wl.Append(e)
		}
		wl.Recycle()
	}
	wlCycle()
	if n := testing.AllocsPerRun(100, wlCycle); n != 0 {
		t.Fatalf("warmed WriteLog cycle allocates %.1f objects/op, want 0", n)
	}

	var rl ReadLog
	rlCycle := func() {
		rl.Reset()
		for i := 0; i < 16; i++ {
			rl.Append(pairs[i%3], uint64(i), nil)
		}
	}
	rlCycle()
	if n := testing.AllocsPerRun(100, rlCycle); n != 0 {
		t.Fatalf("warmed ReadLog cycle allocates %.1f objects/op, want 0", n)
	}
}
