package tlstm_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tlstm/internal/core"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/wtstm"
)

// A conflict-free transaction never yields the processor: the access
// path charges work units but makes no scheduler call. On one P a
// competing goroutine that bumps a counter and yields in a loop can then
// only run if the transaction's goroutine gives the P up, so the counter
// must read the same at the transaction's first and last load. (While
// the runtimes still forced a yield every 64 work units it advanced
// about 150 times across these 10,000 loads.)
func TestConflictFreeTxNeverYields(t *testing.T) {
	const words = 10000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	var counter atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			counter.Add(1)
			runtime.Gosched()
		}
	}()
	defer wg.Wait()
	defer stop.Store(true)

	// scan is the transaction body on every runtime; moved is how far the
	// competitor got between its first and last load.
	var moved uint64
	scan := func(tx tm.Tx, base tm.Addr) {
		first := tx.Load(base)
		c0 := counter.Load()
		sum := first + tm.SumWords(tx, base+1, words-1)
		moved = counter.Load() - c0
		if sum != 0 {
			panic("scan of zeroed words is not zero")
		}
	}

	coreRT := core.New(core.Config{SpecDepth: 1, LockTableBits: 16})
	defer coreRT.Close()
	coreThr := coreRT.NewThread()
	coreBase := coreRT.Direct().Alloc(words)
	stmRT := stm.New()
	stmW := stmRT.NewWorker()
	stmBase := stmRT.Direct().Alloc(words)
	tl2RT := tl2.New(16)
	tl2Base := tl2RT.Direct().Alloc(words)
	wtRT := wtstm.New(16)
	wtBase := wtRT.Direct().Alloc(words)

	for _, rt := range []struct {
		name string
		run  func()
	}{
		{"core", func() { _ = coreThr.Atomic(func(tk *core.Task) { scan(tk, coreBase) }) }},
		{"stm", func() { stmW.Atomic(func(tx *stm.Tx) { scan(tx, stmBase) }) }},
		{"tl2", func() { tl2RT.Atomic(nil, func(tx *tl2.Tx) { scan(tx, tl2Base) }) }},
		{"wtstm", func() { wtRT.Atomic(nil, func(tx *wtstm.Tx) { scan(tx, wtBase) }) }},
	} {
		t.Run(rt.name, func(t *testing.T) {
			rt.run() // grow the read log, so the trials below do not allocate
			// The runtime's own preemption (a 10 ms slice running out, a
			// GC stop) can still hand the P over once; it cannot do so
			// on every one of three fresh slices.
			best := ^uint64(0)
			for trial := 0; trial < 3 && best != 0; trial++ {
				before := counter.Load()
				for counter.Load() == before {
					runtime.Gosched() // the competitor is live, our slice is fresh
				}
				rt.run()
				if moved < best {
					best = moved
				}
			}
			if best != 0 {
				t.Fatalf("competing goroutine ran %d times inside a conflict-free %d-load transaction: the access path yielded the processor", best, words)
			}
		})
	}
}
