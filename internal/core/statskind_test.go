package core

import (
	"testing"
)

// Restart-kind accounting: the breakdown must sum to TaskRestarts and
// attribute the right causes.

func TestRestartKindsSumToTotal(t *testing.T) {
	rt := newRT(3)
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)

	// WAW-heavy workload: three tasks writing the same word.
	for i := 0; i < 20; i++ {
		_ = thr.shipAtomic(
			func(tk *Task) { tk.Store(a, tk.Load(a)+1) },
			func(tk *Task) { tk.Store(a, tk.Load(a)+1) },
			func(tk *Task) { tk.Store(a, tk.Load(a)+1) },
		)
	}
	thr.Sync()
	st := thr.Stats()
	sum := st.RestartWAR + st.RestartWAW + st.RestartExtend + st.RestartCM + st.RestartSandbox + st.RestartRetry
	if sum != st.TaskRestarts {
		t.Fatalf("kind sum %d != TaskRestarts %d", sum, st.TaskRestarts)
	}
	if st.TaskRestarts > 0 && st.RestartWAW+st.RestartWAR == 0 {
		t.Fatalf("conflicting same-word tasks should restart intra-thread, got %+v", st)
	}
	if got := d.Load(a); got != 60 {
		t.Fatalf("counter = %d, want 60", got)
	}
}

func TestRestartKindWARAttribution(t *testing.T) {
	rt := newRT(2)
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)

	// Task 2 reads the word task 1 writes: if task 2's read runs first
	// it commits a WAR restart when task 1's write completes.
	var total Stats
	for i := 0; i < 50; i++ {
		_ = thr.shipAtomic(
			func(tk *Task) { tk.Store(a, uint64(i+1)) },
			func(tk *Task) { _ = tk.Load(a) },
		)
	}
	thr.Sync()
	total = thr.Stats()
	if total.TxCommitted != 50 {
		t.Fatalf("TxCommitted = %d", total.TxCommitted)
	}
	// Some runs may schedule task 2 after task 1 every time (no WAR),
	// so only check attribution consistency, not a minimum count.
	sum := total.RestartWAR + total.RestartWAW + total.RestartExtend + total.RestartCM + total.RestartSandbox + total.RestartRetry
	if sum != total.TaskRestarts {
		t.Fatalf("kind sum %d != TaskRestarts %d (%+v)", sum, total.TaskRestarts, total)
	}
}
