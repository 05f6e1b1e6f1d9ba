package clock

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Conformance suite: the clock must satisfy the properties the
// runtimes' safety arguments rest on (package docs, contract T1 and
// exclusivity). Run with -race: the suite doubles as the clock's
// concurrency hammering. The subtests sit under "gv4", the clock's
// name in trace metadata.

func newGV4() Source { return &GV4{} }

func casMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// TestConformance runs the full property set against the clock.
func TestConformance(t *testing.T) {
	t.Run("gv4", func(t *testing.T) {
		t.Run("ZeroValue", func(t *testing.T) { conformZero(t, newGV4()) })
		t.Run("TickAboveCompletedSamples", func(t *testing.T) { conformT1(t, newGV4()) })
		t.Run("MonotonicNow", func(t *testing.T) { conformMonotonic(t, newGV4()) })
		t.Run("ObserveCatchesUp", func(t *testing.T) { conformObserve(t, newGV4()) })
		t.Run("NoLostTicks", func(t *testing.T) { conformNoLostTicks(t, newGV4()) })
		t.Run("WindowBound", func(t *testing.T) { conformPublished(t, newGV4()) })
	})
}

// conformZero: the zero/fresh state reads 0 and the first tick is ≥ 1.
func conformZero(t *testing.T, src Source) {
	if src.Now() != 0 {
		t.Fatalf("fresh clock reads %d, want 0", src.Now())
	}
	if ts := src.Tick(nil); ts < 1 {
		t.Fatalf("first Tick = %d, want ≥ 1", ts)
	}
}

// conformT1 is the load-bearing safety property: a Tick must come out
// strictly above every Now sample that completed before the Tick
// started. hi tracks the maximum completed sample; a ticker reads hi,
// then ticks — everything folded into hi before that read
// happened-before the tick, so the tick must exceed it.
func conformT1(t *testing.T, src Source) {
	const samplers, tickers, iters = 4, 4, 2000

	var hi atomic.Uint64
	var wg sync.WaitGroup
	for s := 0; s < samplers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				casMax(&hi, src.Now())
			}
		}()
	}
	for w := 0; w < tickers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m := hi.Load()
				if ts := src.Tick(nil); ts <= m {
					t.Errorf("Tick = %d, but a Now sample of %d had already completed (T1 violated)", ts, m)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// conformMonotonic: per-goroutine Now observations never go backwards,
// under concurrent ticking.
func conformMonotonic(t *testing.T, src Source) {
	const readers, writers, iters = 4, 2, 2000

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < iters; i++ {
				src.Tick(nil)
			}
		}()
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			prev := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := src.Now()
				if now < prev {
					t.Errorf("Now went backwards: %d after %d", now, prev)
					return
				}
				prev = now
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
}

// conformObserve: Observe(v) of any previously minted stamp v returns
// a reading ≥ v, Now() covers v, and no later Tick may ever re-issue v
// or anything below it (this is what keeps location versions from
// regressing once a runtime has stamped memory).
func conformObserve(t *testing.T, src Source) {
	const workers, iters = 6, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := uint64(0)
			for i := 0; i < iters; i++ {
				ts := src.Tick(nil)
				if ts <= prev {
					t.Errorf("Tick = %d after this goroutine observed %d: published stamps must be retired", ts, prev)
					return
				}
				if got := src.Observe(ts, nil); got < ts {
					t.Errorf("Observe(%d) = %d, want ≥ %d", ts, got, ts)
					return
				}
				if now := src.Now(); now < ts {
					t.Errorf("Now() = %d after Observe(%d), want ≥", now, ts)
					return
				}
				prev = ts
			}
		}()
	}
	wg.Wait()
}

// conformNoLostTicks: concurrent Ticks hand out globally unique,
// dense, per-goroutine increasing timestamps, and the final clock
// covers the maximum of them.
func conformNoLostTicks(t *testing.T, src Source) {
	const workers, perWorker = 6, 1500

	got := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				got[w] = append(got[w], src.Tick(nil))
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[uint64]bool)
	for w := range got {
		prev := uint64(0)
		for _, ts := range got[w] {
			if ts <= prev {
				t.Fatalf("ticks not strictly increasing: %d after %d", ts, prev)
			}
			if seen[ts] {
				t.Fatalf("duplicate timestamp %d", ts)
			}
			seen[ts] = true
			prev = ts
		}
	}
	if want := uint64(workers * perWorker); src.Now() != want {
		t.Fatalf("final clock = %d, want %d (dense)", src.Now(), want)
	}
}

// conformPublished: a tick is published when Tick returns — Now() ≥ t
// right after, also while other goroutines tick concurrently.
func conformPublished(t *testing.T, src Source) {
	const workers, iters = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ts := src.Tick(nil)
				if now := src.Now(); now < ts {
					t.Errorf("Now() = %d right after Tick returned %d", now, ts)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotValidity is the clock-level form of the runtimes' read
// rule: if a transaction samples s := Now() and then a writer Ticks t,
// the sample can never cover the stamp (s < t) — so a value stamped t
// is unreadable at snapshot s without an extension. The concurrent
// version is conformT1; this is the direct sequential statement.
func TestSnapshotValidity(t *testing.T) {
	t.Run("gv4", func(t *testing.T) {
		src := newGV4()
		for i := 0; i < 1000; i++ {
			s := src.Now()
			if ts := src.Tick(nil); s >= ts {
				t.Fatalf("snapshot %d covers later stamp %d: a value stamped %d would be readable without extension", s, ts, ts)
			}
		}
	})
}
