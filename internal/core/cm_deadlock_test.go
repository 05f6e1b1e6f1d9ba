package core

import (
	"testing"
	"time"

	"tlstm/internal/cm"
	"tlstm/internal/tm"
)

// TestCrossThreadLockCycleTerminatesPerPolicy is the TLSTM form of the
// paper's §3.2 inter-thread deadlock: two user-threads run depth-2
// transactions whose tasks take the same two write locks in OPPOSITE
// order, with enough filler work that both transactions regularly hold
// one lock while a task wants the other. A task-level self-abort
// cannot release the lock the transaction's other task holds, so a
// policy that never aborts owners (suicide, backoff) breaks the cycle
// only through the txSelfAbortDefeats escalation — this test is the
// regression for that escape hatch (it deadlocked before it existed),
// and for the owner-aborting policies it checks their own escalation
// orderings terminate. Final counters double as the atomicity check.
func TestCrossThreadLockCycleTerminatesPerPolicy(t *testing.T) {
	const txPerThread = 40
	const fill = 96

	for _, kind := range cm.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rt := New(Config{SpecDepth: 2, CM: cm.New(kind)})
			defer rt.Close()
			d := rt.Direct()
			a := d.Alloc(2)
			b := a + 1
			filler := d.Alloc(2 * fill)

			run := func(first, second tm.Addr, fillBase tm.Addr, done chan<- struct{}) {
				thr := rt.NewThread()
				touch := func(addr tm.Addr) TaskFunc {
					return func(tk *Task) {
						tk.Store(addr, tk.Load(addr)+1)
						var sink uint64
						for j := 0; j < fill; j++ {
							sink += tk.Load(fillBase + tm.Addr(j))
						}
						tk.Store(addr, tk.Load(addr)+sink)
					}
				}
				for i := 0; i < txPerThread; i++ {
					if err := thr.shipAtomic(touch(first), touch(second)); err != nil {
						t.Error(err)
						break
					}
				}
				thr.Sync()
				done <- struct{}{}
			}

			done := make(chan struct{}, 2)
			go run(a, b, filler, done)
			go run(b, a, filler+fill, done)

			deadline := time.After(90 * time.Second)
			for i := 0; i < 2; i++ {
				select {
				case <-done:
				case <-deadline:
					t.Fatalf("policy %v: cross-thread lock cycle did not terminate (the §3.2 deadlock)", kind)
				}
			}
			want := uint64(2 * txPerThread)
			if got := d.Load(a); got != want {
				t.Fatalf("policy %v: counter a = %d, want %d", kind, got, want)
			}
			if got := d.Load(b); got != want {
				t.Fatalf("policy %v: counter b = %d, want %d", kind, got, want)
			}
		})
	}
}
