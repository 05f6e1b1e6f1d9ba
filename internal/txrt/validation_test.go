package txrt_test

import (
	"sync/atomic"
	"testing"

	"tlstm/internal/core"
	"tlstm/internal/tm"
)

// Commit-time validation regressions. A writer commit validates its
// reads only when its stamp shows that something else committed since
// its snapshot (txrt.Desc.Commit; tl2 and wtstm alike), so the number of
// read entries checked is pinned exactly on every runtime, and the write
// skew that a wrongly skipped validation lets through must abort.

// commitOnHelper runs body as one transaction of rt's helper thread, on
// a goroutine of its own, and returns once it committed.
func commitOnHelper(rt parityRuntime, body func(retryTx)) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.helper(body)
	}()
	<-done
}

// TestValidatedEntriesPinned: a writer transaction with validateReads
// reads validates nothing when no other transaction committed since its
// snapshot, and exactly its reads, in one pass, when one did.
func TestValidatedEntriesPinned(t *testing.T) {
	const validateReads = 16
	for _, rt := range readSideRuntimes() {
		t.Run(rt.name, func(t *testing.T) {
			defer rt.close()
			words := rt.direct.Alloc(validateReads)
			y, u := rt.direct.Alloc(1), rt.direct.Alloc(1)
			// measure runs the writer, calling between (when non-nil)
			// after its reads on its first attempt, and returns the
			// entries validated and the attempts it took.
			measure := func(between func()) (validated uint64, attempts int) {
				before := rt.counters().ValidatedEntries
				rt.atomic(func(tx retryTx) {
					attempts++
					for i := 0; i < validateReads; i++ {
						_ = tx.Load(words + tm.Addr(i))
					}
					if attempts == 1 && between != nil {
						between()
					}
					tx.Store(y, uint64(attempts))
				})
				return rt.counters().ValidatedEntries - before, attempts
			}

			if got, n := measure(nil); got != 0 || n != 1 {
				t.Errorf("no commit in between: validated %d entries in %d attempts, want 0 in 1", got, n)
			}
			got, n := measure(func() {
				commitOnHelper(rt, func(tx retryTx) { tx.Store(u, tx.Load(u)+1) })
			})
			if got != validateReads || n != 1 {
				t.Errorf("one unrelated commit in between: validated %d entries in %d attempts, want %d (one pass) in 1",
					got, n, validateReads)
			}
		})
	}
}

// TestWriteSkewAbortsTheStaleWriter: T1 reads x; T2 reads y, writes x
// and commits; T1 then writes y and commits. T1's read of x is stale at
// its commit, so T1 must retry and serialize after T2. A commit that
// skipped validation here would leave the write skew (x, y) = (1, 10),
// which no serial order produces.
func TestWriteSkewAbortsTheStaleWriter(t *testing.T) {
	for _, rt := range readSideRuntimes() {
		t.Run(rt.name, func(t *testing.T) {
			defer rt.close()
			x, y := rt.direct.Alloc(1), rt.direct.Alloc(1)
			attempts := 0
			rt.atomic(func(tx retryTx) {
				attempts++
				v := tx.Load(x)
				if attempts == 1 {
					commitOnHelper(rt, func(tx retryTx) { tx.Store(x, tx.Load(y)+1) })
				}
				tx.Store(y, v+10)
			})
			if gx, gy := rt.direct.Load(x), rt.direct.Load(y); gx != 1 || gy != 11 || attempts != 2 {
				t.Errorf("(x, y) = (%d, %d) after %d attempts, want (1, 11) after 2", gx, gy, attempts)
			}
		})
	}
}

// TestRingSkipUsesOldestSnapshot pins which snapshot a TLSTM ring
// commit compares its stamp with. Task 1 reads x and forwards it
// through w; another thread then commits x and z; task 2 reads z, which
// extends task 2's snapshot past that commit, and writes y = w + z. The
// commit's stamp is then task 2's snapshot + 1, but task 1's read of x
// is stale: only the oldest snapshot of the tasks shows that, and the
// transaction must abort and re-run to y = 2.
func TestRingSkipUsesOldestSnapshot(t *testing.T) {
	c := core.New(core.Config{SpecDepth: 2})
	defer c.Close()
	thr, other := c.NewThread(), c.NewThread()
	d := c.Direct()
	x, z, w, y := d.Alloc(1), d.Alloc(1), d.Alloc(1), d.Alloc(1)

	read, committed := make(chan struct{}), make(chan struct{})
	var first, second atomic.Int32
	h, err := thr.Submit(
		func(tk *core.Task) {
			tk.Store(w, tk.Load(x))
			if first.Add(1) == 1 {
				close(read)
			}
		},
		func(tk *core.Task) {
			if second.Add(1) == 1 {
				<-committed
			}
			tk.Store(y, tk.Load(w)+tk.Load(z))
		})
	if err != nil {
		t.Fatal(err)
	}
	<-read
	if err := other.Atomic(func(tk *core.Task) { tk.Store(x, 1); tk.Store(z, 1) }); err != nil {
		t.Fatal(err)
	}
	close(committed)
	h.Wait()
	thr.Sync()

	if gw, gy := d.Load(w), d.Load(y); gw != 1 || gy != 2 {
		t.Errorf("(w, y) = (%d, %d), want (1, 2): the commit kept task 1's stale read of x", gw, gy)
	}
	if n := thr.Stats().TxAborted; n != 1 {
		t.Errorf("TxAborted = %d, want 1 (the failed commit validation)", n)
	}
}
