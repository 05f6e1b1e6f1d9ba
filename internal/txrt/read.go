package txrt

import (
	"runtime"
	"sync/atomic"

	"tlstm/internal/locktable"
	"tlstm/internal/tm"
	"tlstm/internal/txlog"
	"tlstm/internal/txtrace"
)

// The read side every runtime shares: the multi-version probe and exit
// of a declared read-only transaction (all four runtimes), and SwissTM's
// committed read, post-write snapshot check, snapshot extension and
// commit-time read validation over a pair read log (stm, core). The
// callers keep what differs between them: how they poll abort signals,
// how they abort, how they wait on a Locked version on the
// multi-version path, and core's own-thread chain check.

// ReadCommitted is SwissTM's committed read of word a under pair p
// (TLSTM Alg. 1 line 16), at snapshot *snap over read log rl: it waits
// out a committer holding p Locked (the publish window is bounded, and a
// committer waits on no one), retries a torn read, and when the version
// is past the snapshot extends it and reads again — the extension
// validated the logged reads, not this one, and a commit between the
// read and the extension may have displaced it. The read is logged with
// firstPast (core's WAR marker, nil for stm) and traced. On a failed
// extension it returns ok false; the caller aborts. The caller polls its
// abort signals before the call.
func (d *Desc) ReadCommitted(p *locktable.Pair, a tm.Addr, rl *txlog.ReadLog, snap *uint64, firstPast *locktable.WEntry) (val uint64, ok bool) {
	for {
		v1 := p.R.Load()
		if v1 == locktable.Locked {
			runtime.Gosched()
			continue
		}
		val = d.env.Store.LoadWord(a)
		if p.R.Load() != v1 {
			continue // torn read: version moved underneath us
		}
		if v1 > *snap {
			if !d.extendTo(rl, snap, v1) {
				return 0, false
			}
			continue
		}
		rl.Append(p, v1, firstPast)
		if d.Traced {
			d.Tr.Record(txtrace.KindRead, v1, uint64(a), 0)
		}
		return val, true
	}
}

// CoverWrite is the post-write snapshot check (TLSTM Alg. 2 line 52,
// SwissTM's alike) after the caller write-locked pair p: if p's version
// moved past *snap, extend to it. On a failed extension it returns
// false; the caller aborts.
func (d *Desc) CoverWrite(p *locktable.Pair, rl *txlog.ReadLog, snap *uint64) bool {
	ver := p.R.Load()
	return ver <= *snap || d.extendTo(rl, snap, ver)
}

// extendTo extends *snap to cover witness. A Locked witness (above
// every snapshot) is not extended to: while the caller holds the pair's
// w-lock only an earlier commit of its own thread can hold the r-lock,
// and that commit precedes the caller's.
func (d *Desc) extendTo(rl *txlog.ReadLog, snap *uint64, witness uint64) bool {
	return witness == locktable.Locked || d.Extend(rl, snap, witness)
}

// ReadMV serves word a at snapshot snap on the multi-version wait-free
// path, logging nothing and never validating. ver is a's version word
// (a pair's r-lock or a bare versioned lock, locktable.Locked while a
// committer holds it). The current value serves when ver is at most
// snap and stable around the plain memory read; otherwise the version
// store supplies the displaced value whose validity interval covers
// snap. On a hit it counts one MVReads and traces the version served.
//
// When neither serves, ok is false and seen is the version found: Locked
// means a committer is publishing the word and may hand the ring exactly
// the version snap needs (the caller's wait policy decides); anything
// else is a ring overrun, and the caller leaves the path (ExitMV).
func (d *Desc) ReadMV(ver *atomic.Uint64, a tm.Addr, snap uint64) (val, seen uint64, ok bool) {
	for {
		seen = ver.Load()
		if seen != locktable.Locked && seen <= snap {
			val = d.env.Store.LoadWord(a)
			if ver.Load() != seen {
				continue // torn read: version moved underneath us
			}
		} else if v, from, hit := d.env.MV.ReadAt(a, snap); hit {
			val, seen = v, from
		} else {
			return 0, seen, false
		}
		d.MVReads++
		if d.Traced {
			// Clock carries the served version's birth stamp, not the
			// snapshot: the opacity checker needs the observed version.
			d.Tr.Record(txtrace.KindRead, seen, uint64(a), 1)
		}
		return val, seen, true
	}
}

// ExitMV leaves the multi-version path for the rest of the transaction
// and aborts the attempt (snap is its snapshot), so the re-run reads
// validated: on a ring overrun, on a store, and on Retry. The attempt
// cannot be moved in place, because its reads so far were unlogged at
// a frozen snapshot and cannot be revalidated forward or fingerprinted.
// Each exit counts one MVMisses.
func (d *Desc) ExitMV(snap uint64, reason uint32) {
	d.MVMisses++
	d.MVOn = false
	d.Abort(snap, reason)
}

// Extend is SwissTM's lazy snapshot extension over a pair read log
// (ExtendWith, revalidating rl).
//
// Pairs the caller write-locks get no exemption: holding the w-lock
// freezes the r-lock against other committers, but the version may have
// moved between the read and the acquisition (and under TLSTM's
// pipelining an earlier transaction of the same thread may publish a
// pair the task's entry sits on). Either way the snapshot no longer
// covers the read, and the exemption let such a zombie extend past the
// conflicting commit and run on a mixed read set until commit-time
// validation — the opacity violation the trace checker flagged under
// high contention.
func (d *Desc) Extend(rl *txlog.ReadLog, snap *uint64, witness uint64) bool {
	return d.ExtendWith(snap, witness, func() bool { return d.ValidateReads(rl, nil) })
}

// ExtendWith is the snapshot-extension protocol around a read-set check:
// re-sample the clock (Observe, which covers witness: the clock's ticks
// are published when they return), run valid and, on success, advance
// *snap to that time.
func (d *Desc) ExtendWith(snap *uint64, witness uint64, valid func() bool) bool {
	ts := d.env.Clk.Observe(witness, nil)
	if !valid() {
		if d.Traced {
			d.Tr.Record(txtrace.KindExtend, ts, witness, 0)
		}
		return false
	}
	if ts > *snap {
		d.SnapshotExtensions++
		if d.Traced {
			d.Tr.Record(txtrace.KindExtend, ts, witness, 1)
		}
	}
	*snap = ts
	return true
}

// ValidateReads checks every committed read of rl against its pair's
// current version and reports whether the reads still hold. Reads
// served from a redo chain (txlog.NoVersion) are validated
// intra-thread, not here.
// scr, when non-nil, is the caller's commit scratch: a pair it r-locked
// compares against the version the commit displaced from it. The work
// charge is one unit per ValidationStride entries; the entries looked
// at are added to ValidatedEntries.
func (d *Desc) ValidateReads(rl *txlog.ReadLog, scr *txlog.CommitScratch) bool {
	entries := rl.Entries()
	for i, re := range entries {
		if re.Version == txlog.NoVersion {
			continue
		}
		if i%ValidationStride == 0 {
			d.Work++
		}
		cur := re.Pair.R.Load()
		if cur == re.Version {
			continue
		}
		if cur == locktable.Locked && scr != nil {
			if pre, ours := scr.Saved(re.Pair); ours && pre == re.Version {
				continue
			}
		}
		d.ValidatedEntries += uint64(i + 1)
		return false
	}
	d.ValidatedEntries += uint64(len(entries))
	return true
}

// TraceValidate records a commit-time read validation of n reads at
// clock ts and its verdict.
func (d *Desc) TraceValidate(ts uint64, n int, ok bool) {
	if d.Traced {
		var aux uint32
		if ok {
			aux = 1
		}
		d.Tr.Record(txtrace.KindValidate, ts, uint64(n), aux)
	}
}

// ArmParkReads is Retry's park over a pair read log (stm, core): the
// fingerprint is the pairs read, the revalidation their committed
// versions (reads served from a redo chain carry none). The caller
// unwinds next.
func (d *Desc) ArmParkReads(rl *txlog.ReadLog) { d.ArmPark(rl.Fingerprint(), rl.Unchanged) }
