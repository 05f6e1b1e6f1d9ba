package txrt_test

import (
	"testing"
	"time"

	"tlstm/internal/core"
	"tlstm/internal/mode"
	"tlstm/internal/sched"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/txrt"
	"tlstm/internal/wtstm"
)

// flatRT is one flat runtime as the panic regression drives it:
// newThread returns a thread's entry points over its own stats shard.
type flatRT struct {
	name      string
	alloc     func() tm.Addr
	newThread func() flatThread
}

type flatThread struct {
	atomic, atomicRO func(body func(tm.Tx))
	stats            func() txrt.Stats
}

func flatRuntimes(opts ...txrt.Option) []flatRT {
	s := stm.New(opts...)
	t := tl2.New(0, opts...)
	w := wtstm.New(0, opts...)
	return []flatRT{
		{"stm", func() tm.Addr { return s.Direct().Alloc(1) }, func() flatThread {
			wk := s.NewWorker()
			return flatThread{
				func(body func(tm.Tx)) { wk.Atomic(func(tx *stm.Tx) { body(tx) }) },
				func(body func(tm.Tx)) { wk.AtomicRO(func(tx *stm.Tx) { body(tx) }) },
				wk.Stats,
			}
		}},
		{"tl2", func() tm.Addr { return t.Direct().Alloc(1) }, func() flatThread {
			st := new(tl2.Stats)
			return flatThread{
				func(body func(tm.Tx)) { t.Atomic(st, func(tx *tl2.Tx) { body(tx) }) },
				func(body func(tm.Tx)) { t.AtomicRO(st, func(tx *tl2.Tx) { body(tx) }) },
				func() txrt.Stats { return *st },
			}
		}},
		{"wtstm", func() tm.Addr { return w.Direct().Alloc(1) }, func() flatThread {
			st := new(wtstm.Stats)
			return flatThread{
				func(body func(tm.Tx)) { w.Atomic(st, func(tx *wtstm.Tx) { body(tx) }) },
				func(body func(tm.Tx)) { w.AtomicRO(st, func(tx *wtstm.Tx) { body(tx) }) },
				func() txrt.Stats { return *st },
			}
		}},
	}
}

// panics runs f and reports whether it panicked with boom.
func panics(f func()) (did bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != "boom" {
				panic(r)
			}
			did = true
		}
	}()
	f()
	return false
}

// within fails the test if f does not return before the deadline: a
// leaked gate shows up as a serialized transaction that never starts.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not finish: the serialized gate is still held", what)
	}
}

// TestUserPanicReleasesGate: a body that panics while its transaction
// holds the serialized gate — because the policy is mode.Serial, or
// because the transaction escalated mid-flight — must not leave the gate
// held; a second thread's serialized transaction has to commit.
func TestUserPanicReleasesGate(t *testing.T) {
	modes := []struct {
		name string
		cfg  mode.Config
	}{
		{"serial", mode.Config{Policy: mode.Serial}},
		// One abort exhausts the attempt budget (mid-transaction
		// Escalate); a negative ratio over a one-commit window makes
		// every thread's second transaction serialized.
		{"escalated", mode.Config{Policy: mode.Adaptive, FallbackAttempts: 1, Window: 1, FallbackRatio: -1}},
	}
	for _, m := range modes {
		for _, rt := range flatRuntimes(txrt.WithMode(m.cfg)) {
			t.Run(rt.name+"/"+m.name, func(t *testing.T) {
				a := rt.alloc()
				first, helper, second := rt.newThread(), rt.newThread(), rt.newThread()
				attempts := 0
				if !panics(func() {
					first.atomic(func(tx tm.Tx) {
						attempts++
						if m.cfg.Policy == mode.Serial {
							tx.Store(a, 1) // hold a lock too
							panic("boom")
						}
						if attempts > 1 {
							panic("boom") // the retry runs under the gate
						}
						// Invalidate our own read so the first attempt
						// aborts: the second Load sees a newer version
						// than the logged one.
						tx.Load(a)
						done := make(chan struct{})
						go func() {
							defer close(done)
							helper.atomic(func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) })
						}()
						<-done
						tx.Load(a)
					})
				}) {
					t.Fatal("the body's panic did not reach the caller")
				}
				if m.cfg.Policy == mode.Adaptive && attempts != 2 {
					t.Fatalf("attempts = %d, want 2 (abort, then panic under the gate)", attempts)
				}
				within(t, "a second thread's serialized transaction", func() {
					for i := 0; i < 2; i++ { // the second one is serialized under either config
						second.atomic(func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) })
					}
				})
				if st := second.stats(); st.Commits != 2 {
					t.Fatalf("second thread committed %d, want 2", st.Commits)
				}
			})
		}
	}
}

// TestUserPanicLeavesNoReadOnlyDeclaration: a panicking AtomicRO body
// must not leave its thread's descriptor declared read-only — the next
// Atomic is an ordinary read-write transaction.
func TestUserPanicLeavesNoReadOnlyDeclaration(t *testing.T) {
	for _, rt := range flatRuntimes(txrt.WithMultiVersion(2)) {
		t.Run(rt.name, func(t *testing.T) {
			a := rt.alloc()
			th := rt.newThread()
			if !panics(func() { th.atomicRO(func(tx tm.Tx) { panic("boom") }) }) {
				t.Fatal("the body's panic did not reach the caller")
			}
			th.atomic(func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) })
			st := th.stats()
			if st.Commits != 1 || st.Aborts != 0 || st.MVReads != 0 || st.MVMisses != 0 {
				t.Fatalf("after a panicked AtomicRO, Atomic ran as commits=%d aborts=%d mvReads=%d mvMisses=%d, want 1/0/0/0",
					st.Commits, st.Aborts, st.MVReads, st.MVMisses)
			}
		})
	}
}

// TestCoreUserPanicReleasesGate is the same scenario against TLSTM.
// Atomic runs a transaction's first task on the submitting goroutine,
// so under either scheduling policy a genuine body panic there surfaces
// in the caller with its value intact (a later task's, on a worker,
// still takes the process down). That thread's transaction never
// commits — the thread is wedged, by design — but its slot is retired,
// its locks are undone and the runtime's gate is free, so every other
// thread runs on, speculative or serialized.
func TestCoreUserPanicReleasesGate(t *testing.T) {
	for _, policy := range []sched.Policy{sched.Pooled, sched.Inline} {
		for _, mc := range []mode.Config{{Policy: mode.Speculative}, {Policy: mode.Serial}} {
			t.Run(policy.String()+"/"+mc.Policy.String(), func(t *testing.T) {
				rt := core.New(core.Config{SpecDepth: 2, Policy: policy, Mode: mc})
				a := rt.Direct().Alloc(1)
				first, second := rt.NewThread(), rt.NewThread()
				if !panics(func() {
					_ = first.Atomic(func(tk *core.Task) {
						tk.Store(a, 1)
						panic("boom")
					})
				}) {
					t.Fatal("the body's panic did not reach the submitter")
				}
				within(t, "a second thread's transaction", func() {
					if err := second.Atomic(func(tk *core.Task) { tk.Store(a, tk.Load(a)+1) }); err != nil {
						t.Error(err)
					}
				})
				if got := rt.Direct().Load(a); got != 1 {
					t.Fatalf("word = %d, want 1 (the panicked store undone, the second thread's increment applied)", got)
				}
				// A one-task transaction never reached a worker, so
				// nothing is left running behind the wedged thread.
				within(t, "Close", rt.Close)
			})
		}
	}
}
