package stm

import (
	"testing"
	"time"

	"tlstm/internal/cm"
	"tlstm/internal/tm"
)

// TestCircularWaitTerminatesPerPolicy is the two-thread circular-wait
// regression on the real runtime: two workers repeatedly run
// transactions that write the same two words in OPPOSITE order, with
// enough filler work in between that, on the single-CPU scheduler, both
// transactions are regularly in flight holding one lock and wanting the
// other — the paper's §3.2 deadlock scenario and the reason for the
// PoliteDefeats escalation in the two-phase greedy design. Every policy
// must drive the pair to completion (no deadlock, no livelock): polite
// phases escalate, seniority or task progress orders the pair,
// randomized backoff breaks symmetry. The final counter values double as the atomicity
// check.
func TestCircularWaitTerminatesPerPolicy(t *testing.T) {
	const txPerWorker = 150
	const fill = 96

	for _, kind := range cm.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rt := New(WithCM(cm.New(kind)))
			d := rt.Direct()
			a := d.Alloc(2)
			b := a + 1
			filler := d.Alloc(2 * fill)

			run := func(first, second tm.Addr, fillBase tm.Addr, done chan<- struct{}) {
				w := rt.NewWorker()
				for i := 0; i < txPerWorker; i++ {
					w.Atomic(func(tx *Tx) {
						tx.Store(first, tx.Load(first)+1)
						var sink uint64
						for j := 0; j < fill; j++ {
							sink += tx.Load(fillBase + tm.Addr(j))
						}
						tx.Store(second, tx.Load(second)+1+sink)
					})
				}
				w.Close()
				done <- struct{}{}
			}

			done := make(chan struct{}, 2)
			go run(a, b, filler, done)
			go run(b, a, filler+fill, done)

			deadline := time.After(60 * time.Second)
			for i := 0; i < 2; i++ {
				select {
				case <-done:
				case <-deadline:
					t.Fatalf("policy %v: circular-wait workload did not terminate (deadlock or livelock)", kind)
				}
			}
			want := uint64(2 * txPerWorker)
			if got := d.Load(a); got != want {
				t.Fatalf("policy %v: counter a = %d, want %d", kind, got, want)
			}
			if got := d.Load(b); got != want {
				t.Fatalf("policy %v: counter b = %d, want %d", kind, got, want)
			}
		})
	}
}
