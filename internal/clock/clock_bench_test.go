package clock

import (
	"fmt"
	"sync"
	"testing"
)

// Raw clock costs. BenchmarkClockCommitPath is the headline number:
// one begin-sample plus one commit-tick per iteration — the exact clock
// traffic of a small writer transaction — hammered from an exact number
// of goroutines (not RunParallel, whose worker count scales with
// GOMAXPROCS and would make the threads= labels machine-dependent).

// BenchmarkClockBeginPath measures the begin-path sample alone — one
// Now() per transaction begin, the single hottest clock operation in a
// begin-heavy (read-dominated) workload.
func BenchmarkClockBeginPath(b *testing.B) {
	var c GV4
	for i := 0; i < 16; i++ {
		c.Tick(nil)
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += c.Now()
	}
	_ = sink
}

func BenchmarkClockCommitPath(b *testing.B) {
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("threads=%d", par), func(b *testing.B) {
			var c GV4
			iters := b.N / par
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < par; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var sink uint64
					for i := 0; i < iters; i++ {
						sink += c.Now()     // begin: snapshot sample
						sink += c.Tick(nil) // commit: stamp
					}
					_ = sink
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkClockReadValidation measures the reader side: a Now sample
// plus an Observe of a fresh stamp (the snapshot-extension path).
func BenchmarkClockReadValidation(b *testing.B) {
	var c GV4
	var sink uint64
	for i := 0; i < b.N; i++ {
		ts := c.Tick(nil)
		sink += c.Observe(ts, nil)
		sink += c.Now()
	}
	_ = sink
}
