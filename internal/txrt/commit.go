package txrt

import (
	"tlstm/internal/locktable"
	"tlstm/internal/txlog"
	"tlstm/internal/txtrace"
)

// Commit is SwissTM's flat commit (paper §3.1) of one attempt over a pair
// lock table — stm's, and core's for a transaction that does not ship.
// rl and wl are the attempt's read and write logs, with at most one entry
// per pair (eager W/W locking admits one writer per pair), each the head
// of its pair's chain; scr is the committer's r-lock scratch and snap the
// attempt's snapshot.
//
// A read-only attempt is consistent by construction at snap and commits
// as it is. A writer locks the written pairs' r-locks, remembering the
// versions it displaces, takes a commit timestamp, validates rl, feeds
// the version store, publishes the buffered values, releases every pair
// at the new version, and rings the Retry waiters whose fingerprints
// intersect the write set. Releasing a pair drops its whole chain: below
// the attempt's entry lies at most a committed remainder that mirrors
// memory.
//
// On a failed validation the displaced versions are restored, the w-locks
// stay held and the failing pair is returned: the caller attributes the
// conflict and aborts. Either way the pool's reclaim counts are taken into
// Reclaims/Stalls.
func (d *Desc) Commit(rl *txlog.ReadLog, wl *txlog.WriteLog, scr *txlog.CommitScratch, snap uint64) (failed *locktable.Pair) {
	reclaims, stalls := wl.TakeReclaimCounts()
	d.Reclaims += reclaims
	d.Stalls += stalls
	if wl.Len() == 0 {
		d.Committed(snap, 0)
		return nil
	}

	scr.Reset()
	for _, e := range wl.Entries() {
		scr.LockPair(e.Pair)
		d.Work++
	}

	ts := d.env.Clk.Tick(&d.ClkProbe)

	// Pairs this commit r-locked compare against the version they had
	// when we locked them.
	failed = d.ValidateReads(rl, scr)
	d.TraceValidate(ts, rl.Len(), failed == nil)
	if failed != nil {
		scr.Restore()
		return failed
	}

	// Feed the multi-version store while memory still holds the values
	// this commit is about to overwrite: each written word's old value
	// was the committed value over [displaced version, ts).
	store := d.env.Store
	if mv := d.env.MV; mv != nil {
		for _, e := range wl.Entries() {
			pre, _ := scr.Saved(e.Pair)
			for _, w := range e.Words {
				mv.Publish(w.Addr, store.LoadWord(w.Addr), pre, ts)
			}
		}
	}

	for _, e := range wl.Entries() {
		for _, w := range e.Words {
			store.StoreWord(w.Addr, w.Val)
			if d.Traced {
				// Written-word identities, between Validate and Commit:
				// the opacity checker rebuilds per-slot version
				// histories from these.
				d.Tr.Record(txtrace.KindCommitWord, ts, uint64(w.Addr), 0)
			}
			d.Work++
		}
	}
	for _, e := range wl.Entries() {
		e.Pair.R.Store(ts)
		e.Pair.W.CompareAndSwap(e, nil)
	}
	// The fast path (no waiters) is one atomic load; the fingerprint is
	// only computed when someone is parked.
	if hub := d.env.Hub; hub.Active() {
		hub.Notify(scr.Fingerprint())
	}
	d.Committed(ts, wl.Len())
	return nil
}
