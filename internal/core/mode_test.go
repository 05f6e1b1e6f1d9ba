package core

import (
	"testing"
	"time"

	"tlstm/internal/mode"
	"tlstm/internal/tm"
)

// TestModeConformance runs the same hot-word mix under both rungs —
// always-speculative and always-serial — plus the serial rung at
// SpecDepth 1 and requires identical final state.
func TestModeConformance(t *testing.T) {
	run := func(depth int, mc mode.Config) []uint64 {
		rt := New(Config{SpecDepth: depth, LockTableBits: 12, Mode: mc})
		defer rt.Close()
		d := rt.Direct()
		words := make([]tm.Addr, 4)
		for i := range words {
			words[i] = d.Alloc(1)
		}
		done := make(chan *Thread, 4)
		for w := 0; w < 4; w++ {
			go func(seed int) {
				thr := rt.NewThread()
				for i := 0; i < 50; i++ {
					x := words[(seed+i)%4]
					y := words[(seed+i+1)%4]
					_ = thr.Atomic(func(tk *Task) {
						tk.Store(x, tk.Load(x)+1)
						tk.Store(y, tk.Load(y)+2)
					})
				}
				thr.Sync()
				done <- thr
			}(w)
		}
		for i := 0; i < 4; i++ {
			<-done
		}
		out := make([]uint64, len(words))
		for i, w := range words {
			out[i] = d.Load(w)
		}
		return out
	}

	spec := run(2, mode.Config{Policy: mode.Speculative})
	serial := run(2, mode.Config{Policy: mode.Serial})
	depth1 := run(1, mode.Config{Policy: mode.Serial})
	for i := range spec {
		if serial[i] != spec[i] || depth1[i] != spec[i] {
			t.Fatalf("rung divergence at word %d: spec=%v serial=%v depth1=%v",
				i, spec, serial, depth1)
		}
	}
}

// TestRetryProducerConsumer parks a single-task consumer on its
// predicate and wakes it with a conflicting producer commit. The
// consumer's task runs on the goroutine that called Atomic, so that is
// where it parks; under the serialized rung the park must release the
// gate from there, or the (equally serialized) producer never gets in.
func TestRetryProducerConsumer(t *testing.T) {
	for _, pol := range []mode.Policy{mode.Speculative, mode.Serial} {
		rt := New(Config{SpecDepth: 2, LockTableBits: 12, Mode: mode.Config{Policy: pol}})
		d := rt.Direct()
		cell := d.Alloc(1)
		out := d.Alloc(1)

		consumer := rt.NewThread()
		producer := rt.NewThread()

		done := make(chan error, 1)
		go func() {
			done <- consumer.Atomic(func(tk *Task) {
				v := tk.Load(cell)
				if v == 0 {
					tk.Retry()
				}
				tk.Store(out, v)
			})
		}()

		time.Sleep(20 * time.Millisecond) // let the consumer park
		if err := producer.Atomic(func(tk *Task) { tk.Store(cell, 42) }); err != nil {
			t.Fatal(err)
		}

		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("mode %v: consumer never woke from Retry park", pol)
		}
		consumer.Sync()
		if got := d.Load(out); got != 42 {
			t.Fatalf("mode %v: consumer stored %d, want 42", pol, got)
		}
		st := consumer.Stats()
		if st.RetryWakes == 0 {
			t.Fatalf("mode %v: expected a doorbell wake, got %+v", pol, st)
		}
		if st.RestartRetry == 0 {
			t.Fatalf("mode %v: Retry unwind not attributed: %+v", pol, st)
		}
		if st.WorkersSpawned != 0 {
			t.Fatalf("mode %v: a one-task Atomic parked on a worker: %+v", pol, st)
		}
		producer.Sync()
		rt.Close()
	}
}

// TestRetryMultiTaskRespins checks the shipped multi-task form: an
// intermediate task cannot park (it would strand its siblings' locks), so
// Retry respins with backoff until the predicate flips. (A fused one is a
// single task and parks: TestFusedRetryParks.)
func TestRetryMultiTaskRespins(t *testing.T) {
	rt := New(Config{SpecDepth: 2, LockTableBits: 12})
	d := rt.Direct()
	cell := d.Alloc(1)
	out := d.Alloc(1)

	consumer := rt.NewThread()
	producer := rt.NewThread()

	done := make(chan error, 1)
	go func() {
		done <- consumer.shipAtomic(
			func(tk *Task) {
				v := tk.Load(cell)
				if v == 0 {
					tk.Retry()
				}
			},
			func(tk *Task) { tk.Store(out, tk.Load(cell)) },
		)
	}()

	time.Sleep(10 * time.Millisecond)
	if err := producer.Atomic(func(tk *Task) { tk.Store(cell, 7) }); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("multi-task Retry never observed the producer's write")
	}
	consumer.Sync()
	if got := d.Load(out); got != 7 {
		t.Fatalf("out = %d, want 7", got)
	}
	st := consumer.Stats()
	if st.RestartRetry == 0 {
		t.Fatalf("respin not attributed to RestartRetry: %+v", st)
	}
	if st.RetryWakes != 0 {
		t.Fatalf("multi-task Retry must not park: %+v", st)
	}
	producer.Sync()
}
