package core

import "fmt"

// Entry reclamation (ROADMAP "Epoch-based entry reclamation", option
// (b)): the machinery that closed the last allocation on the TLSTM
// writer hot path. The moving parts live in three layers —
// locktable.FreeRing holds each descriptor's retired entries,
// txlog.WriteLog routes retirement and reuse through it, and this
// package decides *when*: entries retire at finishCommit and in the
// abort sweeps, stamped with a retirement serial no armed task can
// exceed, and are reused only once the thread's committed-transaction
// frontier (sched.Latch txDone) has passed that stamp.
//
// Entry lifecycle:
//
//	armed      the owning task installed the entry in a redo chain
//	committed  the transaction published its writes; the commit's
//	           release dropped the chain (or left it to a future
//	           stacker, in which case the entry is abandoned to the GC
//	           instead)
//	retired    the entry sits in its descriptor's free ring, stamped
//	           with retirement serial = committed frontier + SPECDEPTH
//	quiescent  the frontier passed the stamp: every task whose attempt
//	           could span the retirement has exited, so no stale
//	           FirstPast pointer to the entry survives anywhere
//	reused     Seed re-initializes it for a new install
//
// Why the frontier and not completedTask: the reuse gate must be
// monotonic (stamps in one ring are FIFO) and completedTask is lowered
// by transaction aborts; the committed frontier only advances, and
// "frontier ≥ serial s" implies every task with serial ≤ s has exited
// for good — committed transactions never restart.
//
// The stamps are upper bounds on armed serials only because every task
// exit is ordered after its transaction's txDone publish: the
// commit-task exits after finishCommit (which publishes), and the
// intermediate commit wait gates on the latch rather than on
// completedTask — finishCommit stores completedTask a moment before it
// publishes, and an exit inside that window would let the submitter
// arm a serial the abort sweep's frontier-based stamp no longer
// covers. (Caught in review; the commit path was always safe because
// it retires before the completedTask store.)
//
// The audit below is the runtime half of the reclamation conformance
// suite (reclaim_test.go): enabled by Config.ReclaimAudit, it hangs off
// locktable.FreeRing.OnReclaim and re-proves, on every recycle served
// from the quiescence tier, that no live attempt could still hold the
// entry.

// auditReclaim is the reclamation invariant checker, invoked on every
// entry reuse served from a quiescence ring when Config.ReclaimAudit is
// set. It asserts, independently of the derivation that makes the gate
// sound:
//
//  1. the reuse gate itself — the committed frontier has reached the
//     entry's retirement serial;
//  2. the quiescence invariant — no task of the thread is inside an
//     attempt that began before the entry was retired. Each task
//     publishes the retirement epoch it observed at attempt begin
//     (Task.readHorizon, horizonDead while its read log is dead); an
//     attempt spanning the retirement would still show an epoch below
//     the entry's, and could hold the recycled pointer as a FirstPast
//     marker — the ABA the horizon exists to rule out.
//
// A violation is a runtime bug, never a workload artifact, so it panics.
func (thr *Thread) auditReclaim(at, epoch int64) {
	if f := thr.txDone.Seq(); f < at {
		panic(fmt.Sprintf(
			"core: reclaim audit: entry with retirement serial %d recycled at committed frontier %d (thread %d)",
			at, f, thr.ID()))
	}
	for i := range thr.slots {
		if p := thr.slots[i].Load(); p != nil {
			if h := p.readHorizon.Load(); h < epoch {
				panic(fmt.Sprintf(
					"core: reclaim audit: entry with retirement epoch %d recycled while task serial %d is mid-attempt with read horizon %d (thread %d)",
					epoch, p.serial.Load(), h, thr.ID()))
			}
		}
	}
}
