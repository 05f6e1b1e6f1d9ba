package txlog

import (
	"fmt"
	"testing"

	"tlstm/internal/locktable"
)

// BenchmarkCommitScratch prices one writer commit's scratch bookkeeping
// per op: Reset, then LockPair and Saved once per pair, Release, and
// Released once per pair — what a commit of n written pairs asks of it
// (lock, validation of reads on locked pairs, release, entry
// retirement). The step from
// pairs=32 to pairs=33 is the switch from scan to map at scanMax.
// allocs/op must be 0.
func BenchmarkCommitScratch(b *testing.B) {
	tbl := locktable.NewTable(12)
	for _, n := range []int{1, 4, 16, 17, 32, 33, 64} {
		es := headEntries(distinctPairs(tbl, n))
		b.Run(fmt.Sprintf("pairs=%d", n), func(b *testing.B) {
			var cs CommitScratch
			var sink uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cs.Reset()
				for _, e := range es {
					cs.LockPair(e)
					e.Pair.W.Store(e) // re-head the chain Release dropped
				}
				for _, e := range es {
					v, _ := cs.Saved(e.Pair)
					sink += v
				}
				cs.Release(1)
				for _, e := range es {
					if cs.Released(e.Pair) {
						sink++
					}
				}
			}
			_ = sink
		})
	}
}
