package txrt_test

import (
	"sync"
	"testing"
	"time"

	"tlstm/internal/tm"
	"tlstm/internal/txrt"
)

// The torn-read guard of the multi-version read path: Desc.ReadMV
// serves current memory only while the word's version is stable around
// the plain load. Without that recheck a read-only scan can take a
// concurrent commit's new value under the old version and commit a
// total the transfers never produced.
func TestReadMVTornReadFourRuntimes(t *testing.T) {
	const accounts, initial = 8, 1000
	for _, name := range []string{"stm", "core", "tl2", "wtstm"} {
		rt := newKitRuntime(name, txrt.Config{MVDepth: 2})
		base := rt.direct.Alloc(accounts)
		for i := 0; i < accounts; i++ {
			rt.direct.Store(base+tm.Addr(i), initial)
		}
		deadline := time.Now().Add(400 * time.Millisecond)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // transfers, on thread 1
			defer wg.Done()
			for r := uint64(1); time.Now().Before(deadline); r++ {
				from, to := base+tm.Addr(r*7%accounts), base+tm.Addr(r*3%accounts)
				rt.threads[1].atomic(func(tx tm.Tx) {
					tx.Store(from, tx.Load(from)-1)
					tx.Store(to, tx.Load(to)+1)
				})
			}
		}()
		scans, bad := 0, uint64(0)
		for ; time.Now().Before(deadline) && bad == 0; scans++ {
			var sum uint64
			rt.threads[0].atomicRO(func(tx tm.Tx) {
				sum = 0
				for i := 0; i < accounts; i++ {
					sum += tx.Load(base + tm.Addr(i))
				}
			})
			if sum != accounts*initial {
				bad = sum
			}
		}
		wg.Wait()
		rt.close()
		if bad != 0 {
			t.Errorf("%s: a read-only scan committed total %d, want %d (scan %d)", name, bad, accounts*initial, scans)
		}
	}
}
