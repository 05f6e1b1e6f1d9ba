package txrt

import (
	"runtime"
	"sync/atomic"
	"time"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mode"
	"tlstm/internal/tm"
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
)

// Algorithm is the part of a flat runtime the driver cannot share: its
// *Tx implements it. Every method is called once per attempt (SetSizes
// once per transaction), never per access.
type Algorithm interface {
	// Begin resets the per-attempt state (logs, held locks), samples
	// the snapshot from the commit clock and returns it.
	Begin() uint64
	// Exec runs the user body and commits. A conflict unwinds it
	// through Desc.Abort.
	Exec()
	// Release drops every lock the attempt holds and undoes its
	// in-place writes. Called on abort and when the body panics; must
	// tolerate an attempt that holds nothing.
	Release()
	// SetSizes reports the committed attempt's read- and write-set
	// sizes.
	SetSizes() (reads, writes int)
}

// rollback is the panic value that unwinds an aborted attempt back to
// the retry loop. It never escapes Run.
type rollback struct{}

// Thread is one logical thread's ladder and placement state: the mode
// controller, the placement identity and home shard, and the
// conflict-sketch window offered to the placement policy every
// RemapPeriod transactions. stm.Worker owns one; for tl2 and wtstm it
// lives in the caller's Stats shard. Single-owner, no atomics.
type Thread struct {
	bound        bool
	id           int32
	home         int32
	txSinceRemap int
	remapWindow  txstats.Sketch
	ctl          mode.Controller
}

// Bind gives t its placement identity and mode controller.
func (e *Env) Bind(t *Thread) {
	t.bound = true
	t.id = e.threadIDs.Add(1) - 1
	t.home = int32(e.Placement.Home(int(t.id)))
	t.ctl = mode.NewController(e.ModeCfg)
}

// Desc is the driver's half of a transaction descriptor; a runtime's Tx
// embeds it next to the algorithm's own logs. Exported fields are the
// ones algorithm code reads or writes on its access and commit paths;
// the rest is the driver's. A Desc is reused across attempts and
// transactions and must be used by one goroutine at a time.
type Desc struct {
	env *Env
	alg Algorithm

	// Work is the current transaction's work units over all attempts.
	Work uint64
	// Extends counts successful snapshot extensions; Reclaims/Stalls
	// the pooled write-entry counts an algorithm with an entry pool
	// reports. All per transaction, folded at commit.
	Extends  uint64
	Reclaims uint64
	Stalls   uint64

	// MVOn is true while a declared read-only transaction runs the
	// multi-version wait-free read path. A miss clears it for the rest
	// of the transaction, which re-runs validated — never an error.
	MVOn     bool
	MVReads  uint64
	MVMisses uint64

	// CMSelf is the contention-management identity, its situational
	// fields refreshed in place before every resolution so the conflict
	// path never allocates. GreedTS is the priority slot policies
	// publish into; it persists across retries of one transaction.
	CMSelf  cm.Self
	cmProbe cm.Probe
	GreedTS atomic.Uint64

	// ClkProbe accumulates clock CAS retries (and pins the descriptor
	// to a shard under the sharded strategy).
	ClkProbe clock.Probe

	// InSerial marks a transaction running under the serialized gate:
	// it IS the entrant, so it is exempt from yielding to one.
	InSerial bool
	// gateYield asks the retry loop for one SpinInit backoff: the
	// attempt aborted itself to let a gate entrant pass.
	gateYield bool

	// Waiter/ParkPending/ParkFP are the Retry cond-var state: Retry
	// subscribes the read-set fingerprint and sets ParkPending, the
	// retry loop parks before the next attempt.
	Waiter      mode.Waiter
	ParkPending bool
	ParkFP      uint64

	// Tr is the descriptor's flight recorder (txtrace.Nop by default);
	// Traced caches Tr.Enabled() so the disabled hot path costs one
	// predicted branch instead of an interface call per operation.
	Tr     txtrace.Tracer
	Traced bool

	allocs []tm.Addr // fresh blocks to release on abort
	frees  []tm.Addr // deferred frees to apply on commit

	aborts      uint64
	retryAborts uint64 // Retry unwinds, excluded from the ladder's signals

	// home is the thread's home shard for this transaction; sketch and
	// crossShard attribute its aborts and CM defeats to shards.
	home       int32
	sketch     txstats.Sketch
	crossShard uint64
}

// Init wires the descriptor to its runtime and algorithm, once, at
// descriptor creation; ring labels its trace ring.
func (d *Desc) Init(env *Env, alg Algorithm, ring string) {
	d.env = env
	d.alg = alg
	d.CMSelf.Timestamp = &d.GreedTS
	d.CMSelf.Probe = &d.cmProbe
	d.Tr, d.Traced = env.NewTracer(ring)
}

// Run executes one transaction to commit: the retry loop around
// alg.Begin/Exec. thr is the calling thread's ladder and placement
// state; nil means st's own (tl2, wtstm), and with st nil as well the
// ladder is disarmed and nothing is recorded. ro declares the
// transaction read-only.
func (d *Desc) Run(thr *Thread, st *Stats, ro bool) {
	env := d.env
	if thr == nil && st != nil {
		thr = &st.thr
	}
	if thr != nil && !thr.bound {
		env.Bind(thr)
	}
	d.Work, d.Extends, d.Reclaims, d.Stalls = 0, 0, 0, 0
	d.aborts, d.retryAborts = 0, 0
	d.gateYield = false
	d.GreedTS.Store(0)
	d.CMSelf.Defeats = 0
	d.MVOn = ro && env.MV != nil
	d.MVReads, d.MVMisses = 0, 0
	d.sketch = txstats.Sketch{}
	d.crossShard = 0
	d.home = 0
	if thr != nil {
		d.home = thr.home
	}
	if d.Traced {
		d.Tr.Record(txtrace.KindTxBegin, env.Clk.Now(), 0, 0)
	}
	// Ladder: a serialized transaction takes the runtime gate before
	// its first attempt (announcing itself so speculative wait loops
	// yield) and runs the unchanged protocol under it — opacity by
	// construction, serialization only against other fallback entrants.
	serial := thr != nil && thr.ctl.Serial()
	if serial {
		d.enterGate()
	}
	var lastAttempt time.Time
	for {
		if d.ParkPending {
			d.parkRetry(st)
		}
		lastAttempt = time.Now()
		snap := d.alg.Begin()
		d.allocs = d.allocs[:0]
		d.frees = d.frees[:0]
		d.Work += TxStartCost
		if d.Traced {
			d.Tr.Record(txtrace.KindAttemptStart, snap, d.aborts+1, 0)
		}
		if d.attempt() {
			break
		}
		if st != nil {
			st.RestartLatency.Observe(int(time.Since(lastAttempt)))
		}
		d.aborts++
		if d.ParkPending {
			// A Retry unwound this attempt; it parks at the top of the
			// loop — no contention backoff, no escalation pressure.
			d.retryAborts++
			continue
		}
		if !serial && thr != nil && thr.ctl.Escalate(int(d.aborts-d.retryAborts)) {
			// Attempt budget exhausted mid-transaction (TK_NUM_TRIES):
			// move this transaction under the gate and retry there.
			serial = true
			if st != nil {
				st.ModeFallbacks++
			}
			if d.Traced {
				d.Tr.Record(txtrace.KindModeShift, env.Clk.Now(),
					uint64(mode.StateSerial), uint32(mode.StateSpec))
			}
			d.enterGate()
			continue
		}
		if d.gateYield {
			// We aborted to let a gate entrant pass: back off SpinInit
			// yields so the serialized cohort gets cycles first.
			d.gateYield = false
			for i := 0; i < env.ModeCfg.SpinInit; i++ {
				runtime.Gosched()
			}
		}
		// Back off per policy so the conflict window is not re-entered
		// immediately (and, on a single CPU, so the lock owner we lost
		// to gets scheduled before we re-acquire).
		d.CMSelf.Aborts = d.aborts
		for i, n := 0, cm.AbortBackoff(env.CM, &d.CMSelf); i < n; i++ {
			runtime.Gosched()
		}
	}
	if serial {
		d.exitGate()
	}
	if thr != nil {
		if fell, rec := thr.ctl.OnOutcome(d.aborts-d.retryAborts, d.CMSelf.Defeats > 0); fell || rec {
			if st != nil {
				if fell {
					st.ModeFallbacks++
				} else {
					st.ModeRecoveries++
				}
			}
			if d.Traced {
				d.Tr.Record(txtrace.KindModeShift, env.Clk.Now(),
					uint64(thr.ctl.State()), uint32(1-thr.ctl.State()))
			}
		}
	}
	cm.Committed(env.CM, &d.CMSelf)
	cmSelf, cmOwner, spins := d.cmProbe.TakeCounts()
	if st != nil {
		reads, writes := d.alg.SetSizes()
		st.Commits++
		st.Aborts += d.aborts
		st.Work += d.Work
		st.SnapshotExtensions += d.Extends
		st.ClockCASRetries += d.ClkProbe.TakeRetries()
		st.CMAbortsSelf += cmSelf
		st.CMAbortsOwner += cmOwner
		st.BackoffSpins += spins
		st.EntryReclaims += d.Reclaims
		st.HorizonStalls += d.Stalls
		st.MVReads += d.MVReads
		st.MVMisses += d.MVMisses
		st.ReadSetSizes.Observe(reads)
		st.WriteSetSizes.Observe(writes)
		st.CommitLatency.Observe(int(time.Since(lastAttempt)))
		st.Attempts.Observe(int(d.aborts) + 1)
		if d.aborts != 0 { // only an attempt that dies writes the sketch
			st.ConflictSketch.Merge(d.sketch)
			st.CrossShardConflicts += d.crossShard
		}
	}
	if thr != nil {
		d.maybeRemap(thr, st)
	}
}

// attempt runs the body and commit once. It reports success, turns an
// abort's unwind into a false return, and cleans up after a genuine
// user panic — locks, speculative allocations and the serialized gate —
// so the rest of the system stays live while the panic propagates.
func (d *Desc) attempt() (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, is := r.(rollback); !is {
				d.alg.Release()
				d.freeAllocs()
				if d.InSerial {
					d.exitGate()
				}
				panic(r)
			}
			ok = false
		}
	}()
	d.alg.Exec()
	return true
}

// Abort releases the attempt's locks and speculative allocations,
// records the reason on the trace (snap is the attempt's current
// snapshot) and unwinds to the retry loop. The abort event closes the
// attempt on the trace, so it follows whatever Release records.
func (d *Desc) Abort(snap uint64, reason uint32) {
	d.alg.Release()
	d.freeAllocs()
	if d.Traced {
		d.Tr.Record(txtrace.KindAbort, snap, 0, reason)
	}
	panic(rollback{})
}

// ResolveConflict runs one round of a lock conflict at address a
// through the contention manager: it aborts the attempt on an AbortSelf
// verdict, signals owner on AbortOwner, and yields to a serialized gate
// entrant rather than riding the conflict out against it (the lock's
// owner may itself be parked behind the gate). When it returns the
// caller waits one round and looks again. owner is nil for anonymous
// version locks.
func (d *Desc) ResolveConflict(snap uint64, a tm.Addr, point cm.Point, writes, waited int, owner *locktable.OwnerRef) {
	d.CMSelf.Point = point
	d.CMSelf.Writes = writes
	d.CMSelf.Waited = waited
	dec := cm.Resolve(d.env.CM, &d.CMSelf, owner)
	if d.Traced {
		d.Tr.Record(txtrace.KindCMDecision, snap, uint64(a), txtrace.CMAux(int(dec), int(point)))
	}
	switch dec {
	case cm.AbortSelf:
		d.CMSelf.Defeats++
		d.NoteConflictAt(a)
		d.Abort(snap, txtrace.AbortCM)
	case cm.AbortOwner:
		owner.AbortTx.Load().Store(true)
	}
	if !d.InSerial && d.env.Gate.Pending() {
		d.CMSelf.Defeats++
		d.gateYield = true
		d.NoteConflictAt(a)
		d.Abort(snap, txtrace.AbortCM)
	}
}

// NoteConflict attributes one abort or CM defeat to a lock-table shard
// (cold path: runs only when an attempt dies).
func (d *Desc) NoteConflict(shard int) {
	d.sketch.Observe(shard)
	if int32(shard) != d.home {
		d.crossShard++
	}
}

// NoteConflictAt is NoteConflict for the shard of address a.
func (d *Desc) NoteConflictAt(a tm.Addr) { d.NoteConflict(d.env.Layout.ShardOf(a)) }

// Tick charges work units to the virtual-time model. It makes no
// scheduler call: a conflict-free transaction keeps its processor.
func (d *Desc) Tick(units uint64) { d.Work += units }

// Alloc implements tm.Tx: allocation is undone if the attempt aborts.
func (d *Desc) Alloc(n int) tm.Addr {
	d.Work++
	a := d.env.Alloc.Alloc(n)
	d.allocs = append(d.allocs, a)
	return a
}

// Free implements tm.Tx: the release is deferred to commit.
func (d *Desc) Free(a tm.Addr) { d.frees = append(d.frees, a) }

// ApplyFrees releases the blocks the committed transaction freed.
func (d *Desc) ApplyFrees() {
	for _, a := range d.frees {
		d.env.Alloc.Free(a)
	}
}

func (d *Desc) freeAllocs() {
	for _, a := range d.allocs {
		d.env.Alloc.Free(a)
	}
}

// enterGate moves the transaction under the serialized rung. A flat
// runtime has no speculative pipeline of its own to drain — the
// in-flight attempt has already unwound — so announcing and locking is
// the whole entry protocol.
func (d *Desc) enterGate() {
	d.env.Gate.Enter()
	d.InSerial = true
}

func (d *Desc) exitGate() {
	d.InSerial = false
	d.env.Gate.Exit()
}

// parkRetry blocks on the Retry doorbell until a conflicting commit
// rings it. A serialized transaction releases the gate across the park
// (parking while holding it would block every fallback entrant,
// possibly including the very producer it waits for) and re-enters
// afterwards.
func (d *Desc) parkRetry(st *Stats) {
	d.ParkPending = false
	if d.Traced {
		d.Tr.Record(txtrace.KindRetryPark, d.env.Clk.Now(), d.ParkFP, 0)
	}
	serial := d.InSerial
	if serial {
		d.exitGate()
	}
	d.Waiter.Park()
	d.env.Hub.Unsubscribe(&d.Waiter)
	if serial {
		d.enterGate()
	}
	if st != nil {
		st.RetryWakes++
	}
	if d.Traced {
		d.Tr.Record(txtrace.KindRetryPark, d.env.Clk.Now(), d.ParkFP, 1)
	}
}

// maybeRemap is the commit-epilogue placement step, run on the thread's
// own goroutine: every RemapPeriod transactions it offers the
// accumulated conflict-sketch window to the placement policy and
// refreshes the thread's home shard.
func (d *Desc) maybeRemap(thr *Thread, st *Stats) {
	if d.aborts != 0 {
		thr.remapWindow.Merge(d.sketch)
	}
	thr.txSinceRemap++
	if thr.txSinceRemap < RemapPeriod {
		return
	}
	thr.txSinceRemap = 0
	moved := d.env.Placement.Rebalance(int(thr.id), thr.remapWindow)
	thr.remapWindow = txstats.Sketch{}
	if moved {
		old := thr.home
		thr.home = int32(d.env.Placement.Home(int(thr.id)))
		if st != nil {
			st.Remaps++
		}
		if d.Traced {
			d.Tr.Record(txtrace.KindRemap, d.env.Clk.Now(), uint64(thr.home), uint32(old))
		}
	}
}
