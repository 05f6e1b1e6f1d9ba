package core_test

import (
	"sync"
	"testing"

	"tlstm/internal/core"
	"tlstm/internal/tm"
	"tlstm/internal/xrand"
)

// Cross-thread atomicity on the commit clock: concurrent multi-task
// transfer transactions over a shared account array must preserve the
// global total. This is the runtime-level form of the clock
// conformance suite's snapshot-validity property — a stamp that slipped
// under a snapshot would manifest here as a lost or duplicated update.
// The subtest carries the clock's name. Run with -race in CI.
func TestClockStrategiesTransferAtomicity(t *testing.T) {
	const (
		threads  = 3
		depth    = 3
		accounts = 16
		txPerThr = 150
		initial  = 1_000
	)
	t.Run("gv4", func(t *testing.T) {
		rt := core.New(core.Config{SpecDepth: depth, LockTableBits: 14})
		defer rt.Close()
		d := rt.Direct()
		base := d.Alloc(accounts)
		for i := 0; i < accounts; i++ {
			d.Store(base+tm.Addr(i), initial)
		}

		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			thr := rt.NewThread()
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := seed
				next := func() uint64 { return xrand.Splitmix(&rng) }
				for i := 0; i < txPerThr; i++ {
					idx := make([]tm.Addr, depth+1)
					for j := range idx {
						idx[j] = base + tm.Addr(next()%accounts)
					}
					amt := next() % 50
					fns := make([]core.TaskFunc, depth)
					for j := 0; j < depth; j++ {
						from, to := idx[j], idx[j+1]
						fns[j] = func(tk *core.Task) {
							f := tk.Load(from)
							if from != to && f >= amt {
								tk.Store(from, f-amt)
								tk.Store(to, tk.Load(to)+amt)
							}
						}
					}
					// Submit ships every task, whatever the spawn
					// decision would make of these short transfers.
					h, err := thr.Submit(fns...)
					if err != nil {
						panic(err)
					}
					h.Wait()
				}
				thr.Sync()
			}(uint64(w + 1))
		}
		wg.Wait()

		var sum uint64
		for i := 0; i < accounts; i++ {
			sum += d.Load(base + tm.Addr(i))
		}
		if want := uint64(accounts * initial); sum != want {
			t.Fatalf("total = %d, want %d (atomicity violated)", sum, want)
		}
		st := rt.Stats()
		if st.TxCommitted != threads*txPerThr {
			t.Fatalf("committed %d, want %d", st.TxCommitted, threads*txPerThr)
		}
	})
}
