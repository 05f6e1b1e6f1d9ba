package txrt_test

import (
	"testing"

	"tlstm/internal/cm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/txrt"
	"tlstm/internal/txstats"
	"tlstm/internal/wtstm"
)

// The read-side parity regression: the multi-version probe and exit,
// and the Retry park, are the engine kit's, so every directed scenario
// below must fold the same read-side counters on all four runtimes.

// readSideRuntimes is parityRuntimes (stm, core solo, core ring) plus tl2 and wtstm,
// each with the runtime's default contention manager and a version
// ring of depth 2.
func readSideRuntimes() []parityRuntime {
	const mvDepth = 2
	rts := parityRuntimes(func() cm.Policy { return nil })
	l2rt := tl2.New(14, tl2.WithMultiVersion(mvDepth))
	ts, th := new(tl2.Stats), new(tl2.Stats)
	w := wtstm.New(14, wtstm.WithMultiVersion(mvDepth))
	ws, wh := new(wtstm.Stats), new(wtstm.Stats)
	return append(rts,
		parityRuntime{
			name: "tl2", direct: l2rt.Direct(),
			atomic:   func(body func(retryTx)) { l2rt.Atomic(ts, func(tx *tl2.Tx) { body(tx) }) },
			atomicRO: func(body func(retryTx)) { l2rt.AtomicRO(ts, func(tx *tl2.Tx) { body(tx) }) },
			helper:   func(body func(retryTx)) { l2rt.Atomic(th, func(tx *tl2.Tx) { body(tx) }) },
			counters: func() txrt.Counters { return ts.Counters },
			close:    func() {},
		},
		parityRuntime{
			name: "wtstm", direct: w.Direct(),
			atomic:   func(body func(retryTx)) { w.Atomic(ws, func(tx *wtstm.Tx) { body(tx) }) },
			atomicRO: func(body func(retryTx)) { w.AtomicRO(ws, func(tx *wtstm.Tx) { body(tx) }) },
			helper:   func(body func(retryTx)) { w.Atomic(wh, func(tx *wtstm.Tx) { body(tx) }) },
			counters: func() txrt.Counters { return ws.Counters },
			close:    func() {},
		})
}

// readSide is the slice of Counters the kit's read side owns.
type readSide struct {
	RetryWakes, MVReads, MVMisses uint64
	Attempts                      txstats.Hist
}

func TestReadSideParityFourRuntimes(t *testing.T) {
	rows := []struct {
		name     string
		run      func(t *testing.T, rt parityRuntime)
		want     readSide
		attempts int // of the measured transaction
	}{
		{
			// Retry parks and a conflicting commit wakes it: two attempts.
			name: "retry-wakes",
			run: func(t *testing.T, rt parityRuntime) {
				flag := rt.direct.Alloc(1)
				consumeFlag(t, rt, rt.atomic, flag)
			},
			want: readSide{RetryWakes: 1}, attempts: 2,
		},
		{
			// A declared read-only transaction reads wait-free.
			name: "mv-read",
			run: func(t *testing.T, rt parityRuntime) {
				w := rt.direct.Alloc(1)
				rt.atomicRO(func(tx retryTx) { _ = tx.Load(w) })
			},
			want: readSide{MVReads: 1}, attempts: 1,
		},
		{
			// A producer overruns the version ring of the next word:
			// the read misses, and the transaction re-runs validated.
			name: "mv-ring-overrun",
			run: func(t *testing.T, rt parityRuntime) {
				w := rt.direct.Alloc(2)
				first := true
				rt.atomicRO(func(tx retryTx) {
					_ = tx.Load(w)
					if first {
						first = false
						produced := make(chan struct{})
						go func() {
							defer close(produced)
							for k := 0; k < 4; k++ {
								rt.helper(func(tx retryTx) { tx.Store(w+1, tx.Load(w+1)+1) })
							}
						}()
						<-produced
					}
					_ = tx.Load(w + 1)
				})
			},
			want: readSide{MVReads: 1, MVMisses: 1}, attempts: 2,
		},
		{
			// An undeclared store leaves the multi-version path.
			name: "mv-undeclared-store",
			run: func(t *testing.T, rt parityRuntime) {
				w := rt.direct.Alloc(1)
				rt.atomicRO(func(tx retryTx) { tx.Store(w, tx.Load(w)+1) })
			},
			want: readSide{MVReads: 1, MVMisses: 1}, attempts: 2,
		},
		{
			// Retry under the multi-version path leaves it (its reads
			// were unlogged), and the validated re-run parks: three
			// attempts.
			name: "mv-retry",
			run: func(t *testing.T, rt parityRuntime) {
				flag := rt.direct.Alloc(1)
				consumeFlag(t, rt, rt.atomicRO, flag)
			},
			want: readSide{RetryWakes: 1, MVReads: 1, MVMisses: 1}, attempts: 3,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.want.Attempts.Observe(row.attempts)
			rts := readSideRuntimes()
			got := make([]readSide, len(rts))
			for i, rt := range rts {
				row.run(t, rt)
				c := rt.counters()
				rt.close()
				got[i] = readSide{c.RetryWakes, c.MVReads, c.MVMisses, c.Attempts}
				if got[i] != row.want {
					t.Errorf("%s: %+v, want %+v", rt.name, got[i], row.want)
				}
			}
			for i := 1; i < len(rts); i++ {
				if got[i] != got[0] {
					t.Errorf("%s and %s disagree: %+v vs %+v", rts[0].name, rts[i].name, got[0], got[i])
				}
			}
		})
	}
}

// consumeFlag runs, on run, a consumer that Retries until flag is set,
// waits until it parks, and sets the flag from the helper thread.
func consumeFlag(t *testing.T, rt parityRuntime, run func(func(retryTx)), flag tm.Addr) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		run(func(tx retryTx) {
			if tx.Load(flag) == 0 {
				tx.Retry()
			}
		})
	}()
	waitParked(t)
	rt.helper(func(tx retryTx) { tx.Store(flag, 1) })
	<-done
}
