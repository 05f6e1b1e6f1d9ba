package core

import (
	"fmt"
	"sync"
	"testing"

	"tlstm/internal/tm"
)

// BenchmarkThreadCommitSmallTxClock is BenchmarkThreadCommitSmallTx
// under contention: exactly 4 concurrent user-threads (goroutines are
// spawned directly, not via RunParallel, whose worker count scales with
// GOMAXPROCS), each running single-task writer transactions on its own
// address. The threads share no data — the only shared state on the
// path is the commit clock itself — so the delta to the one-thread
// benchmark is the commit clock's fetch-and-add contention.
func BenchmarkThreadCommitSmallTxClock(b *testing.B) {
	const threads = 4
	b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
		rt := New(Config{SpecDepth: 1})
		defer rt.Close()
		d := rt.Direct()
		addrs := make([]tm.Addr, threads)
		thrs := make([]*Thread, threads)
		for i := range addrs {
			addrs[i] = d.Alloc(1)
			thrs[i] = rt.NewThread()
		}
		iters := b.N / threads
		var wg sync.WaitGroup
		b.ResetTimer()
		for g := 0; g < threads; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				thr, a := thrs[g], addrs[g]
				body := func(t *Task) { t.Store(a, t.Load(a)+1) }
				for i := 0; i < iters; i++ {
					_ = thr.Atomic(body)
				}
				thr.Sync()
			}(g)
		}
		wg.Wait()
	})
}
