package main

import (
	"sync/atomic"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mode"
	"tlstm/internal/sched"
	"tlstm/internal/tm"
	"tlstm/internal/txlog"
	"tlstm/internal/txtrace"
)

// Isolated timings: each layer's public functions called directly in
// amortised loops, fed the address stream and the set sizes recorded
// from the workload's own first transactions — so the same function
// prices differently per workload. These are prices, not shares: a
// share is calls × price and is labelled as modelled wherever quoted.

const (
	recordTxs   = 10_000    // transactions whose accesses are recorded,
	recordMax   = 2_000_000 // or fewer once this many accesses are held
	fullCalls   = 1_000_000 // calls per timing
	fullWakes   = 200_000   // arm→wake round trips (each costs microseconds)
	mvDepth     = 2         // version ring depth priced for a later MV workload
	clockStride = 1 << 16   // calls per batch of the loops with no stream
)

// sink keeps the timed calls' results alive.
var sink uint64

// perCall runs batch until at least calls calls were made and returns
// nanoseconds per call.
func perCall(calls int, batch func() int) float64 {
	done := 0
	start := now()
	for done < calls {
		done += batch()
	}
	return float64(now()-start) / float64(done)
}

// record runs the workload's first transactions on mem.Direct through a
// recording tm.Tx: recordTxs of them, fewer where transactions are so
// large (sb7_rw: 16 k accesses each) that recordMax accesses come first.
func record(r *rig) *recording {
	rec := &recording{}
	e := buildEngine(engDirect, "mem+record", r.wl, r.threads, r.n, engineOpts{
		wrap: func(_, _ int, b body) body {
			rt := &recTx{rec: rec}
			return func(tx tm.Tx) { rt.Tx = tx; b(rt) }
		},
	})
	for i := 0; i < min(recordTxs, r.total()) && len(rec.addrs) < recordMax; i++ {
		for th := range e.threads {
			r.loop(e, th, i, i+1)
			rec.txEnds = append(rec.txEnds, len(rec.addrs))
		}
	}
	return rec
}

// isolatedTimings prices the layers; scale shrinks the call counts with
// the slices (smoke tests), never below a thousand calls.
func isolatedTimings(r *rig, out *outcome, scale float64) {
	minCalls := max(int(fullCalls*min(scale, 1)), 1000)
	wakeCalls := max(int(fullWakes*min(scale, 1)), 1000)
	rec := record(r)
	tbl := locktable.NewTable(lockTableBits)

	// locktable.For over the recorded stream.
	var last *locktable.Pair
	out.set("locktable.for_ns", perCall(minCalls, func() int {
		for _, a := range rec.addrs {
			p := tbl.For(a)
			if p == last {
				sink++
			}
			last = p
		}
		return len(rec.addrs)
	}))

	// Per recorded transaction: the pairs it reads, and the distinct
	// pairs it writes (a runtime creates one write entry per pair).
	pairs := make([]*locktable.Pair, len(rec.addrs))
	for i, a := range rec.addrs {
		pairs[i] = tbl.For(a)
	}
	type txSets struct{ reads, writes []*locktable.Pair }
	sets := make([]txSets, len(rec.txEnds))
	seen, written := map[*locktable.Pair]bool{}, map[*locktable.Pair]bool{}
	var distinct, nReads, nWrites int
	lo := 0
	for t, hi := range rec.txEnds {
		clear(seen)
		clear(written)
		for i := lo; i < hi; i++ {
			seen[pairs[i]] = true
			if !rec.store[i] {
				sets[t].reads = append(sets[t].reads, pairs[i])
			} else if !written[pairs[i]] {
				written[pairs[i]] = true
				sets[t].writes = append(sets[t].writes, pairs[i])
			}
		}
		distinct += len(seen)
		nReads += len(sets[t].reads)
		nWrites += len(sets[t].writes)
		lo = hi
	}
	out.set("locktable.distinct_pairs_per_tx", float64(distinct)/float64(len(sets)))

	// txlog.ReadLog.Append at the recorded read-set sizes.
	var rl txlog.ReadLog
	out.set("txlog.readlog_append_ns", perCall(minCalls, func() int {
		for _, s := range sets {
			rl.Reset()
			for i, p := range s.reads {
				rl.Append(p, uint64(i), nil)
			}
		}
		sink += uint64(rl.Len())
		return max(nReads, 1)
	}))

	// One write entry's life at the recorded write-set sizes: NewEntryAt
	// + Append, Retire at commit, reuse by the next transaction once the
	// frontier has passed. No writes, no cycle: the metric reads 0.
	cycle := 0.0
	if nWrites > 0 {
		var wl txlog.WriteLog
		owner := &locktable.OwnerRef{}
		serial := int64(0)
		cycle = perCall(minCalls, func() int {
			for _, s := range sets {
				serial++
				for _, p := range s.writes {
					wl.Append(wl.NewEntryAt(owner, serial, p, 0, 0, serial-1))
				}
				wl.Retire(serial, serial, serial-1)
			}
			return nWrites
		})
	}
	out.set("txlog.writelog_cycle_ns", cycle)

	// txlog.VersionedStore: off at default configuration (MV 0).
	vs := txlog.NewVersionedStore(mvDepth, txlog.DefaultVersionedStoreBits)
	stamp := uint64(1)
	out.set("txlog.mv_publish_ns", perCall(minCalls, func() int {
		for _, a := range rec.addrs {
			vs.Publish(a, stamp, stamp, stamp+1)
			stamp++
		}
		return len(rec.addrs)
	}))
	out.set("txlog.mv_readat_ns", perCall(minCalls, func() int {
		for _, a := range rec.addrs {
			v, _, _ := vs.ReadAt(a, stamp)
			sink += v
		}
		return len(rec.addrs)
	}))

	// clock: the default GV4 source.
	clk := clock.New(clock.KindGV4)
	var cp clock.Probe
	stride := func(f func()) func() int {
		return func() int {
			for i := 0; i < clockStride; i++ {
				f()
			}
			return clockStride
		}
	}
	out.set("clock.now_ns", perCall(minCalls, stride(func() { sink += clk.Now() })))
	out.set("clock.tick_ns", perCall(minCalls, stride(func() { sink += clk.Tick(&cp) })))
	out.set("clock.observe_ns", perCall(minCalls, stride(func() { sink += clk.Observe(0, &cp) })))

	// cm.Resolve on TLSTM's default policy: equal task progress, both
	// transactions in the greedy phase, the requester younger.
	var mine, theirs atomic.Uint64
	var completed atomic.Int64
	mine.Store(5)
	theirs.Store(3)
	completed.Store(1)
	owner := &locktable.OwnerRef{CompletedTask: &completed}
	owner.StartSerial.Store(1)
	owner.Timestamp.Store(&theirs)
	self := &cm.Self{Timestamp: &mine, Probe: &cm.Probe{}, Completed: 1, Start: 1}
	pol := cm.New(cm.KindTaskAware)
	out.set("cm.resolve_ns", perCall(minCalls, stride(func() { sink += uint64(cm.Resolve(pol, self, owner)) })))

	// mode.Controller.OnOutcome, adaptive policy, a clean commit.
	ctl := mode.NewController(mode.Config{Policy: mode.Adaptive})
	out.set("mode.outcome_ns", perCall(minCalls, stride(func() {
		if fell, _ := ctl.OnOutcome(0, false); fell {
			sink++
		}
	})))

	// sched: arm a pooled slot, its worker publishes the latch, the
	// submitter wakes — TLSTM's per-task hand-off with an empty task.
	var latch sched.Latch
	pool := sched.New(1, sched.Pooled, func(int) { latch.Publish(latch.Seq() + 1) })
	n := int64(0)
	out.set("sched.arm_to_wake_ns", perCall(wakeCalls, func() int {
		for i := 0; i < 1024; i++ {
			n++
			pool.WaitIdle(0)
			pool.Arm(0)
			latch.Wait(n)
		}
		return 1024
	}))
	pool.Close()

	// txtrace: an armed ring against the no-op tracer.
	ring := txtrace.NewRecorder(0).NewRing("bench")
	var armed, nop txtrace.Tracer = ring, txtrace.Nop
	out.set("txtrace.record_ns", perCall(minCalls, stride(func() { armed.Record(txtrace.KindRead, 1, 2, 3) })))
	out.set("txtrace.nop_record_ns", perCall(minCalls, stride(func() { nop.Record(txtrace.KindRead, 1, 2, 3) })))
}
