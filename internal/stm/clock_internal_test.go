package stm

import (
	"sync"
	"testing"

	"tlstm/internal/clock"
	"tlstm/internal/tm"
)

// White-box checks of the snapshot rule under each commit-clock
// strategy: a value stamped t is never readable by a transaction whose
// valid-ts is below t without a snapshot extension first covering t.

// TestDeferredStampRequiresExtension drives the deferred clock's
// defining scenario end to end: a writer publishes at Now()+1 while the
// clock stays put, so the next reader MUST extend (and thereby advance
// the clock) before it can see the value.
func TestDeferredStampRequiresExtension(t *testing.T) {
	rt := New(WithClock(clock.New(clock.KindDeferred)))
	var a tm.Addr
	rt.Atomic(nil, func(tx *Tx) { a = tx.Alloc(1) })
	rt.Atomic(nil, func(tx *Tx) { tx.Store(a, 42) })

	var st Stats
	rt.Atomic(&st, func(tx *Tx) {
		before := tx.validTS
		if got := tx.Load(a); got != 42 {
			t.Fatalf("Load = %d, want 42", got)
		}
		// The read returned, so the snapshot must now cover the stamp:
		// the published version is ahead of the begin-time clock and is
		// only reachable through Extend/Observe.
		if tx.validTS <= before && before < tx.rt.Clk.Now() {
			t.Fatalf("validTS did not advance over a pre-published stamp (validTS=%d, clock=%d)", tx.validTS, tx.rt.Clk.Now())
		}
	})
	if st.SnapshotExtensions == 0 {
		t.Fatal("reading a deferred stamp must cost a snapshot extension")
	}
}

// TestSnapshotNeverCoversFreshStamp asserts the invariant directly on
// the internals, for every strategy: whenever a transaction records a
// read version, that version is ≤ validTS, and validTS is ≤ the clock's
// current reading (the snapshot never runs ahead of what the clock can
// justify).
func TestSnapshotNeverCoversFreshStamp(t *testing.T) {
	for _, kind := range clock.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rt := New(WithClock(clock.New(kind)))
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
}

// TestClockStrategiesCounterAtomicity hammers one shared counter from
// several workers under each strategy: the committed total must be
// exact. Run with -race in CI.
func TestClockStrategiesCounterAtomicity(t *testing.T) {
	const workers, perWorker = 4, 300
	for _, kind := range clock.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rt := New(WithClock(clock.New(kind)))
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
				t.Fatalf("clock %v: counter = %d, want %d", kind, got, workers*perWorker)
			}
			st := rt.Stats()
			if st.Commits != workers*perWorker {
				t.Fatalf("clock %v: commits = %d, want %d", kind, st.Commits, workers*perWorker)
			}
		})
	}
}
