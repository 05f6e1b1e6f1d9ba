package clock

import (
	"sync"
	"testing"
)

func TestGV4ZeroValueAndTick(t *testing.T) {
	var c GV4
	if c.Now() != 0 {
		t.Fatalf("zero clock reads %d, want 0", c.Now())
	}
	if ts := c.Tick(nil); ts != 1 {
		t.Fatalf("first Tick = %d, want 1", ts)
	}
	if c.Now() != 1 {
		t.Fatalf("Now after Tick = %d, want 1", c.Now())
	}
}

// Concurrent GV4 Ticks must hand out unique, dense timestamps — commit
// serialization depends on it.
func TestGV4ConcurrentTicksUnique(t *testing.T) {
	const workers = 8
	const perWorker = 1000

	var c GV4
	got := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				got[w] = append(got[w], c.Tick(nil))
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[uint64]bool, workers*perWorker)
	for w := range got {
		prev := uint64(0)
		for _, ts := range got[w] {
			if ts == 0 {
				t.Fatal("Tick returned 0 (reserved for the initial state)")
			}
			if ts <= prev {
				t.Fatalf("timestamps not monotonic within a worker: %d after %d", ts, prev)
			}
			prev = ts
			if seen[ts] {
				t.Fatalf("duplicate timestamp %d", ts)
			}
			seen[ts] = true
		}
	}
	if want := uint64(workers * perWorker); c.Now() != want {
		t.Fatalf("final clock = %d, want %d (dense)", c.Now(), want)
	}
}

// New hands out a fresh GV4 per call: two runtimes never share one.
func TestParseAndNew(t *testing.T) {
	a, b := New(KindGV4), New(KindGV4)
	if _, ok := a.(*GV4); !ok {
		t.Fatalf("New(KindGV4) = %T, want *GV4", a)
	}
	a.Tick(nil)
	if a.Now() != 1 || b.Now() != 0 {
		t.Fatalf("New shares state between instances: %d, %d", a.Now(), b.Now())
	}
}
