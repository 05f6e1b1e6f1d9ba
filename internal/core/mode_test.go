package core

import (
	"context"
	"os"
	"os/exec"
	"sync/atomic"
	"testing"
	"time"

	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mode"
	"tlstm/internal/tm"
)

// forcedLadder is the deterministic ladder config used by the mode
// tests: the negative ratio makes every full window fall back and every
// served residency recover, so transitions happen regardless of the
// actual conflict rate.
func forcedLadder() mode.Config {
	return mode.Config{Policy: mode.Adaptive, Window: 2, SerialWindow: 2, FallbackRatio: -1}
}

func TestAdaptiveLadderFallbackAndRecovery(t *testing.T) {
	rt := New(Config{SpecDepth: 2, LockTableBits: 12, Mode: forcedLadder()})
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)

	for i := 0; i < 40; i++ {
		if err := thr.Atomic(func(tk *Task) { tk.Store(a, tk.Load(a)+1) }); err != nil {
			t.Fatal(err)
		}
	}
	thr.Sync()
	st := thr.Stats()
	if st.ModeFallbacks == 0 {
		t.Fatalf("forced ladder never fell back: %+v", st)
	}
	if st.ModeRecoveries == 0 {
		t.Fatalf("forced ladder never recovered: %+v", st)
	}
	if got := d.Load(a); got != 40 {
		t.Fatalf("counter = %d, want 40 (mixed-rung commits must agree)", got)
	}
	if st.TxCommitted != 40 {
		t.Fatalf("TxCommitted = %d, want 40", st.TxCommitted)
	}
}

// TestModeConformance runs the same hot-word mix under every rung —
// always-speculative, forced adaptive oscillation, and always-serial —
// plus the forced ladder at SpecDepth 1 and requires identical final
// state.
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
	adaptive := run(2, forcedLadder())
	serial := run(2, mode.Config{Policy: mode.Serial})
	depth1 := run(1, forcedLadder())
	for i := range spec {
		if adaptive[i] != spec[i] || serial[i] != spec[i] || depth1[i] != spec[i] {
			t.Fatalf("rung divergence at word %d: spec=%v adaptive=%v serial=%v depth1=%v",
				i, spec, adaptive, serial, depth1)
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

// waitCM is an always-Wait contention manager: it never aborts either
// side, so any cross-thread lock standoff it adjudicates persists until
// something else (the gate-yield break) resolves it.
type waitCM struct{}

func (waitCM) Name() string                                         { return "wait" }
func (waitCM) OnConflict(*cm.Self, *locktable.OwnerRef) cm.Decision { return cm.Wait }
func (waitCM) OnAbort(*cm.Self) int                                 { return 0 }
func (waitCM) OnCommit(*cm.Self)                                    {}

// runGateStandoff builds the directed cross-thread standoff of the
// drain-deadlock regression: thread B falls back to the serialized rung
// and, under the gate, takes Y then wants X; speculative thread A takes
// X then wants Y, and its CM (always-Wait) would ride the conflict out
// forever. Only the gate-yield break in the wait loop lets A concede,
// release X, and unblock the gated entrant. It returns once both
// threads committed.
func runGateStandoff() {
	rt := New(Config{SpecDepth: 1, LockTableBits: 12, CM: waitCM{},
		Mode: mode.Config{Policy: mode.Adaptive, Window: 1, SerialWindow: 8, FallbackRatio: -1}})
	d := rt.Direct()
	x := d.Alloc(1)
	y := d.Alloc(1)

	var aHasX, bHasY atomic.Bool
	done := make(chan struct{}, 2)

	go func() { // thread B: trivial commit, then a gated transaction
		thr := rt.NewThread()
		_ = thr.Atomic(func(tk *Task) { tk.Load(y) })
		// Window=1 with the forced ratio: the next submit falls back.
		_ = thr.Atomic(func(tk *Task) {
			tk.Store(y, 1)
			bHasY.Store(true)
			for !aHasX.Load() {
				time.Sleep(time.Millisecond)
			}
			tk.Store(x, 1) // X is held by A: ride out under the gate
		})
		thr.Sync()
		done <- struct{}{}
	}()

	go func() { // thread A: speculative, cross-holds against B
		thr := rt.NewThread()
		_ = thr.Atomic(func(tk *Task) {
			tk.Store(x, 2)
			aHasX.Store(true)
			for !bHasY.Load() {
				time.Sleep(time.Millisecond)
			}
			tk.Store(y, 2) // Y is held by the gated entrant
		})
		thr.Sync()
		done <- struct{}{}
	}()

	<-done
	<-done
}

// TestGateDrainBreaksWaitStandoff is the satellite regression: a ladder
// fallback entered while a CM Wait decision is pending must not
// deadlock against the draining speculative cohort.
func TestGateDrainBreaksWaitStandoff(t *testing.T) {
	finished := make(chan struct{})
	go func() {
		runGateStandoff()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("gate standoff deadlocked despite the wait-loop break")
	}
}

// TestGateDrainBreakIsLoadBearing mutation-verifies the regression
// above: with the break disarmed (gatePendingBreak=false) the same
// standoff must deadlock. The mutant runs in a subprocess so its
// wedged goroutines cannot poison this process.
func TestGateDrainBreakIsLoadBearing(t *testing.T) {
	if os.Getenv("CORE_GATE_MUTANT") == "1" {
		gatePendingBreak = false
		runGateStandoff() // expected to wedge; the parent kills us
		return
	}
	if testing.Short() {
		t.Skip("subprocess mutant check")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestGateDrainBreakIsLoadBearing$")
	cmd.Env = append(os.Environ(), "CORE_GATE_MUTANT=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != context.DeadlineExceeded {
		t.Fatalf("mutant with the break disarmed did not deadlock (err=%v):\n%s", err, out)
	}
}
