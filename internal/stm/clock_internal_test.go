package stm

import (
	"sync"
	"testing"
)

// White-box checks of the snapshot rule on the commit clock: a value
// stamped t is never readable by a transaction whose valid-ts is below
// t without a snapshot extension first covering t. The subtests carry
// the clock's name.

// TestSnapshotNeverCoversFreshStamp asserts the invariant directly on
// the internals: whenever a transaction records a
// read version, that version is ≤ validTS, and validTS is ≤ the clock's
// current reading (the snapshot never runs ahead of what the clock can
// justify).
func TestSnapshotNeverCoversFreshStamp(t *testing.T) {
	t.Run("gv4", func(t *testing.T) {
		rt := New()
		d := rt.Direct()
		a := d.Alloc(1)
		b := d.Alloc(1)

		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 200; i++ {
				rt.Atomic(nil, func(tx *Tx) { tx.Store(b, tx.Load(b)+1) })
			}
		}()
		for i := 0; i < 200; i++ {
			rt.Atomic(nil, func(tx *Tx) {
				tx.Load(a)
				tx.Load(b)
				for _, re := range tx.readLog.Entries() {
					if re.Version > tx.validTS {
						t.Errorf("recorded version %d above validTS %d", re.Version, tx.validTS)
					}
				}
				if now := rt.Clk.Now(); tx.validTS > now {
					t.Errorf("validTS %d ran ahead of the clock %d", tx.validTS, now)
				}
			})
		}
		<-done
	})
}

// TestClockStrategiesCounterAtomicity hammers one shared counter from
// several workers: the committed total must be
// exact. Run with -race in CI.
func TestClockStrategiesCounterAtomicity(t *testing.T) {
	const workers, perWorker = 4, 300
	t.Run("gv4", func(t *testing.T) {
		rt := New()
		a := rt.Direct().Alloc(1)

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wk := rt.NewWorker()
				defer wk.Close()
				for i := 0; i < perWorker; i++ {
					wk.Atomic(func(tx *Tx) { tx.Store(a, tx.Load(a)+1) })
				}
			}()
		}
		wg.Wait()
		if got := rt.LoadWordRaw(a); got != workers*perWorker {
			t.Fatalf("counter = %d, want %d", got, workers*perWorker)
		}
		st := rt.Stats()
		if st.Commits != workers*perWorker {
			t.Fatalf("commits = %d, want %d", st.Commits, workers*perWorker)
		}
	})
}
