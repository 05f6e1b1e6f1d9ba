package txrt

import (
	"tlstm/internal/txlog"
	"tlstm/internal/txtrace"
)

// Logs is one task's read and write log as a commit takes them: a SwissTM
// transaction (stm, core's solo task) has one pair, a TLSTM transaction
// one per task.
type Logs struct {
	Read  *txlog.ReadLog
	Write *txlog.WriteLog
}

// Commit is SwissTM's commit (paper §3.1) over a pair lock table, and so
// TLSTM's (Alg. 3 lines 79–92): a TLSTM transaction commits like a
// SwissTM one over every task's logs. logs are the transaction's logs in
// program order, each write log holding at most one entry per pair
// (eager W/W locking admits one writer per pair, and a task updates its
// own entry); scr is the committer's r-lock scratch and snap the
// snapshot. It returns the commit timestamp — snap for a read-only
// transaction — and the caller closes the attempt.
//
// A read-only transaction is consistent by construction at snap and
// commits as it is. A writer locks each written pair's r-lock once,
// remembering the version it displaces, takes a commit timestamp,
// validates every read log unless the stamp is snap+1, feeds the version
// store, publishes the buffered values in program order — when two tasks
// wrote a word, the later one's value lands last — releases every pair
// at the new version (txlog.CommitScratch.Release) and rings the Retry
// waiters whose fingerprints intersect the write set.
//
// snap must be a time at which every read of every log held: the
// snapshot of a one-pair transaction, the oldest snapshot among a TLSTM
// transaction's tasks (each task extends its own). The skip at
// ts == snap+1 is TL2's and rests on the clock's contract
// (internal/clock). Take a writer W that displaced a version this
// transaction read: W r-locked the pair after the read and ticked after
// that. Each read came after its task's snapshot was sampled, or was
// revalidated by the extension that sampled it, so W ticked after a
// sample of at least snap and, by (T1), above snap. Tick values are
// unique (exclusivity), so W's stamp is not ts; when ts == snap+1 it is
// above ts, and W serializes after this commit. "The clock moved once"
// thus means that no commit stamped before ts overwrote a read, and
// validation could not fail.
//
// On a failed validation, traced like a passing one, the displaced
// versions are restored, the w-locks stay held and ok is false: the
// caller aborts. Either way the logs' pool reclaim counts are taken into
// Reclaims/Stalls.
func (d *Desc) Commit(logs []Logs, scr *txlog.CommitScratch, snap uint64) (ts uint64, ok bool) {
	writes := 0
	for _, l := range logs {
		reclaims, stalls := l.Write.TakeReclaimCounts()
		d.Reclaims += reclaims
		d.Stalls += stalls
		writes += l.Write.Len()
	}
	if writes == 0 {
		return snap, true
	}

	scr.Reset()
	for _, l := range logs {
		for _, e := range l.Write.Entries() {
			if scr.LockPair(e) {
				d.Work++
			}
		}
	}

	ts = d.env.Clk.Tick(nil)

	if ts != snap+1 {
		// Pairs this commit r-locked compare against the version they
		// had when we locked them.
		ok = d.ValidateLogs(logs, scr)
		d.TraceValidateLogs(ts, logs, ok)
		if !ok {
			scr.Restore()
			return ts, false
		}
	}

	// Feed the multi-version store while memory still holds the values
	// this commit is about to overwrite: each written word's old value
	// was the committed value over [displaced version, ts). A word two
	// tasks wrote is fed twice, identically: duplicates cost ring
	// slots, never correctness.
	store := d.env.Store
	if mv := d.env.MV; mv != nil {
		for _, l := range logs {
			for _, e := range l.Write.Entries() {
				pre, _ := scr.Saved(e.Pair)
				for _, w := range e.Words {
					mv.Publish(w.Addr, store.LoadWord(w.Addr), pre, ts)
				}
			}
		}
	}

	for _, l := range logs {
		for _, e := range l.Write.Entries() {
			for _, w := range e.Words {
				store.StoreWord(w.Addr, w.Val)
				if d.Traced {
					// Written-word identities, between Validate and
					// Commit: the opacity checker rebuilds per-slot
					// version histories from these (same-word repeats
					// across tasks dedup offline).
					d.Tr.Record(txtrace.KindCommitWord, ts, uint64(w.Addr), 0)
				}
				d.Work++
			}
		}
	}
	scr.Release(ts)
	// The fast path (no waiters) is one atomic load; the fingerprint is
	// only computed when someone is parked.
	if hub := d.env.Hub; hub.Active() {
		hub.Notify(scr.Fingerprint())
	}
	return ts, true
}

// ValidateLogs is ValidateReads over every read log of logs.
func (d *Desc) ValidateLogs(logs []Logs, scr *txlog.CommitScratch) bool {
	for _, l := range logs {
		if !d.ValidateReads(l.Read, scr) {
			return false
		}
	}
	return true
}

// TraceValidateLogs is TraceValidate over the reads of every log.
func (d *Desc) TraceValidateLogs(ts uint64, logs []Logs, ok bool) {
	if d.Traced {
		n := 0
		for _, l := range logs {
			n += l.Read.Len()
		}
		d.TraceValidate(ts, n, ok)
	}
}
