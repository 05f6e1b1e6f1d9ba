package txrt_test

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tlstm/internal/cm"
	"tlstm/internal/core"
	"tlstm/internal/locktable"
	"tlstm/internal/mem"
	"tlstm/internal/stm"
	"tlstm/internal/tm"
	"tlstm/internal/txrt"
	"tlstm/internal/txstats"
)

// The fold-parity regression: one directed scenario, run on stm and on
// both of core's paths for a one-task transaction — Atomic (the solo
// task, on the kit's driver) and Submit+Wait (the task ring) — must fold
// the per-transaction counters the runtimes share into the same values:
// a one-task TLSTM transaction is a SwissTM transaction, and all three
// fold through txrt.Desc.Close.

type retryTx interface {
	tm.Tx
	Retry()
}

// parityRuntime is one runtime as the scenario drives it: the measured
// thread (atomic, atomicRO, counters) and a helper thread for the
// producer and the lock holder.
type parityRuntime struct {
	name             string
	direct           mem.Direct
	atomic, atomicRO func(body func(retryTx))
	helper           func(body func(retryTx))
	counters         func() txrt.Counters
	close            func()

	// core only: the thread's modeled virtual time, and its committed
	// transactions (each one task, so each adds its Work plus core's
	// commitCost).
	virtual func() (vt, commits uint64)
}

// coreCommitCost is core's per-task commit cost in the virtual-time model.
const coreCommitCost = 2

// coreRow is one of core's paths as the scenario drives it, run and
// runRO being the measured thread's entries.
func coreRow(name string, c *core.Runtime, run, runRO func(*core.Thread, core.TaskFunc)) parityRuntime {
	ct, ch := c.NewThread(), c.NewThread()
	return parityRuntime{
		name: name, direct: c.Direct(),
		atomic:   func(body func(retryTx)) { run(ct, func(tk *core.Task) { body(tk) }) },
		atomicRO: func(body func(retryTx)) { runRO(ct, func(tk *core.Task) { body(tk) }) },
		helper:   func(body func(retryTx)) { _ = ch.Atomic(func(tk *core.Task) { body(tk) }) },
		counters: func() txrt.Counters { ct.Sync(); return ct.Stats().Counters },
		close:    func() { ch.Sync(); c.Close() },
		virtual: func() (uint64, uint64) {
			ct.Sync()
			st := ct.Stats()
			return st.VirtualTime, st.TxCommitted
		},
	}
}

func parityRuntimes(pol func() cm.Policy) []parityRuntime {
	const mvDepth = 2
	s := stm.New(stm.WithMultiVersion(mvDepth), stm.WithCM(pol()))
	sm, sh := s.NewWorker(), s.NewWorker()
	newCore := func() *core.Runtime { return core.New(core.Config{SpecDepth: 2, MVDepth: mvDepth, CM: pol()}) }
	submitWait := func(ro bool) func(*core.Thread, core.TaskFunc) {
		return func(thr *core.Thread, fn core.TaskFunc) {
			submit := thr.Submit
			if ro {
				submit = thr.SubmitRO
			}
			h, _ := submit(fn)
			h.Wait()
		}
	}
	return []parityRuntime{
		{
			name: "stm", direct: s.Direct(),
			atomic:   func(body func(retryTx)) { sm.Atomic(func(tx *stm.Tx) { body(tx) }) },
			atomicRO: func(body func(retryTx)) { sm.AtomicRO(func(tx *stm.Tx) { body(tx) }) },
			helper:   func(body func(retryTx)) { sh.Atomic(func(tx *stm.Tx) { body(tx) }) },
			counters: func() txrt.Counters { return sm.Stats().Counters },
			close:    func() { sm.Close(); sh.Close() },
		},
		coreRow("core", newCore(),
			func(thr *core.Thread, fn core.TaskFunc) { _ = thr.Atomic(fn) },
			func(thr *core.Thread, fn core.TaskFunc) { _ = thr.AtomicRO(fn) }),
		coreRow("core-ring", newCore(), submitWait(false), submitWait(true)),
	}
}

// defeatOnce loses the first conflict it resolves for the requester
// (AbortSelf) and lets the owner go; every later conflict waits.
type defeatOnce struct {
	fired   atomic.Bool
	release chan struct{}
}

func (p *defeatOnce) Name() string { return "defeat-once" }

func (p *defeatOnce) OnConflict(*cm.Self, *locktable.OwnerRef) cm.Decision {
	if p.fired.CompareAndSwap(false, true) {
		close(p.release)
		return cm.AbortSelf
	}
	return cm.Wait
}

func (p *defeatOnce) OnAbort(*cm.Self) int { return 0 }
func (p *defeatOnce) OnCommit(*cm.Self)    {}

// waitParked blocks until some goroutine is parked in Desc.parkRetry.
func waitParked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("txrt.(*Desc).parkRetry")) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("the consumer never parked in Retry")
}

func TestFoldParityCoreAndSTM(t *testing.T) {
	var pols []*defeatOnce
	rts := parityRuntimes(func() cm.Policy {
		p := &defeatOnce{release: make(chan struct{})}
		pols = append(pols, p)
		return p
	})
	got := make([]txrt.Counters, len(rts))
	for i, rt := range rts {
		pol := pols[i]
		root, flag, x := rt.direct.Alloc(1), rt.direct.Alloc(1), rt.direct.Alloc(1)
		w := rt.direct.Alloc(2)

		// Alloc + free: two transactions, one attempt each.
		rt.atomic(func(tx retryTx) { tx.Store(root, uint64(tx.Alloc(2))) })
		rt.atomic(func(tx retryTx) { tx.Free(tm.Addr(tx.Load(root))); tx.Store(root, 0) })

		// One Retry park, woken by a producer's commit: two attempts.
		done := make(chan struct{})
		go func() {
			defer close(done)
			rt.atomic(func(tx retryTx) {
				if tx.Load(flag) == 0 {
					tx.Retry()
				}
			})
		}()
		waitParked(t)
		rt.helper(func(tx retryTx) { tx.Store(flag, 1) })
		<-done

		// A declared read-only transaction on the multi-version path: one
		// wait-free read, then a producer overruns the version ring of
		// the next word, so the read misses and the transaction re-runs
		// validated — two attempts, one MV read, one miss.
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

		// One forced CM defeat: the helper holds x's lock until the
		// measured thread has lost its first conflict; two attempts.
		held, hdone := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(hdone)
			holding := true
			rt.helper(func(tx retryTx) {
				tx.Store(x, 2)
				if holding {
					holding = false
					close(held)
					<-pol.release
				}
			})
		}()
		<-held
		rt.atomic(func(tx retryTx) { tx.Store(x, 1) })
		<-hdone

		got[i] = rt.counters()
		if rt.virtual != nil {
			if vt, commits := rt.virtual(); vt != got[i].Work+coreCommitCost*commits {
				t.Errorf("%s: VirtualTime %d over %d one-task transactions of %d work units, want work + %d per transaction",
					rt.name, vt, commits, got[i].Work, coreCommitCost)
			}
		}
		rt.close()
	}

	var attempts txstats.Hist
	for _, n := range []int{1, 1, 2, 2, 2} {
		attempts.Observe(n)
	}
	for i, c := range got {
		name := rts[i].name
		if c.RetryWakes != 1 || c.MVReads != 1 || c.MVMisses != 1 || c.CMAbortsSelf != 1 {
			t.Errorf("%s: RetryWakes=%d MVReads=%d MVMisses=%d CMAbortsSelf=%d, want 1 each",
				name, c.RetryWakes, c.MVReads, c.MVMisses, c.CMAbortsSelf)
		}
		if c.ConflictSketch.Total() != 1 {
			t.Errorf("%s: ConflictSketch total %d, want 1 (the defeat)", name, c.ConflictSketch.Total())
		}
		if c.Attempts != attempts {
			t.Errorf("%s: Attempts [%s], want [%s]", name, c.Attempts, attempts)
		}
	}
	s := got[0]
	for i, k := range got[1:] {
		if s.RetryWakes != k.RetryWakes || s.MVReads != k.MVReads || s.MVMisses != k.MVMisses ||
			s.CMAbortsSelf != k.CMAbortsSelf || s.ConflictSketch != k.ConflictSketch || s.Attempts != k.Attempts {
			t.Errorf("folds disagree:\n stm  %+v\n %s %+v", s, rts[i+1].name, k)
		}
	}
}
