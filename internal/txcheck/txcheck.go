// Package txcheck is the offline opacity checker: it consumes a
// TXTRACE2 flight-recorder dump (txtrace.ReadTrace), reconstructs every
// transaction attempt — committed, aborted, and unresolved — from the
// per-context rings, rebuilds per-lock-slot version histories from the
// written-word events (a committed transaction's publish, and the
// write-through runtime's abort-time lock release, which re-stamps the
// slots it held without changing their values), and decides opacity via
// the linearizability reduction (Armstrong/Dongol/Doherty, PAPERS.md):
//
//   - Every attempt's read set {(slot_i, v_i)} — where v_i is the
//     version stamp the read observed — must admit a serialization
//     point p with max(v_i) <= p < min(next(slot_i, v_i)), next(s, v)
//     being the smallest committed stamp on s strictly above v. An
//     empty intersection means no instant at which all observed values
//     were simultaneously current: the attempt saw an inconsistent
//     snapshot. This check applies to aborted and in-flight attempts
//     too — that is opacity's whole point — and is sound under every
//     clock strategy: a validated read prefix always admits p = the
//     attempt's final valid timestamp, because any writer that
//     displaces a validated read both locks and ticks after the last
//     validation covering it (clock contract T1), stamping strictly
//     above it.
//
//   - Committed writers under an exclusive clock (gv4) additionally
//     anchor at their own commit stamp ts: the unique fetch-and-add
//     stamps are the serialization order, so every read (s, v) must
//     still be current at ts — next(s, v) < ts is a serialization
//     cycle (the transaction read a value some earlier-serialized
//     commit had already displaced, yet committed above it).
//     next(s, v) == ts is the transaction's own write. Non-exclusive
//     clocks legitimately break the stamp-order-equals-serialization-
//     order premise (two serialized writers may share a stamp; sharded
//     stamps are not globally ordered), so this check is gated on the
//     trace's clock metadata.
//
//   - Under an exclusive clock, two distinct committed transactions can
//     never stamp the same slot with the same timestamp (duplicate-
//     stamp violation). Shared-stamp clocks allow it (clock package
//     docs), so the checker merges duplicates silently there.
//
//   - On a drop-free trace every observed stamp v > 0 must appear in
//     its slot's rebuilt history (phantom-version violation: the read
//     returned a torn or fabricated version). A single ring overwrite
//     anywhere in the namespace disables this check — the displacing
//     commit's CommitWord may be among the dropped events.
//
// Version stamps live on lock-table slots, not addresses: the checker
// recomputes each address's slot with the same Fibonacci-hash layout
// the runtime used, taken from the trace metadata ("stm.lockbits", ...)
// that each runtime registers when tracing is armed. Rings are grouped
// into namespaces by label prefix ("stm-worker" -> "stm",
// "core-thr0-slot2" -> "core"), so one recorder shared by several
// runtimes — the differential harness — checks each against its own
// history.
//
// Ring overwrite drops the oldest events, so a retained window can
// start mid-attempt; the checker skips to the first AttemptStart,
// counts what it skipped, and downgrades the ring's verdict from
// "complete" to "partial". Mid-ring sequence gaps are structurally
// impossible in a sound dump (txtrace.Validate rejects them) but are
// handled the same way, defensively.
package txcheck

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"tlstm/internal/locktable"
	"tlstm/internal/tm"
	"tlstm/internal/txtrace"
)

// Verdicts a ring can earn. Violated trumps Partial trumps Complete.
const (
	// VerdictComplete: every retained attempt checked, no events lost,
	// no violations.
	VerdictComplete = "complete"
	// VerdictPartial: no violations, but ring overwrite or a sequence
	// gap lost events — the checked window is a suffix of the run.
	VerdictPartial = "partial"
	// VerdictViolated: at least one opacity violation on this ring.
	VerdictViolated = "violated"
)

// Violation codes.
const (
	// CodeEmptyInterval: an attempt's observed versions admit no
	// serialization point (inconsistent snapshot).
	CodeEmptyInterval = "empty-interval"
	// CodeStaleCommit: a committed writer under an exclusive clock read
	// a version displaced before its own commit stamp (serialization
	// cycle).
	CodeStaleCommit = "stale-read-at-commit"
	// CodeDuplicateStamp: two distinct transactions committed the same
	// slot at the same timestamp under an exclusive clock.
	CodeDuplicateStamp = "duplicate-stamp"
	// CodePhantomVersion: a read observed a nonzero version stamp no
	// committed transaction in the (drop-free) trace ever wrote.
	CodePhantomVersion = "phantom-version"
)

// Violation is one opacity finding, anchored to the ring and event
// sequence that exposed it.
type Violation struct {
	Ring   string
	RingID uint32
	Seq    uint64 // sequence of the anchoring event on that ring
	Code   string
	Msg    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: ring %d (%s) seq %d: %s", v.Code, v.RingID, v.Ring, v.Seq, v.Msg)
}

// RingReport is one ring's verdict and tallies.
type RingReport struct {
	ID        uint32
	Label     string
	Namespace string

	Attempts        int // committed + aborted + unresolved
	Committed       int
	Aborted         int
	Unresolved      int // attempts with no terminal event in the window
	AbortedVerified int // aborted attempts whose read snapshot checked out
	ReadsChecked    int
	CommitWords     int

	DroppedEvents uint64 // ring-overwrite loss (oldest events)
	SeqGaps       int    // mid-ring discontinuities (defensive)
	SkippedEvents int    // events discarded while resyncing to an AttemptStart
	Verdict       string
	Violations    []Violation
}

// Report is a whole-trace verdict.
type Report struct {
	Rings []RingReport

	TxsChecked      int
	Committed       int
	Aborted         int
	AbortedVerified int
	Unresolved      int
	ReadsChecked    int
	CommitWords     int

	CompleteRings int
	PartialRings  int
	ViolatedRings int
	DroppedEvents uint64

	Violations []Violation
}

// Ok reports whether the trace is free of opacity violations.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Complete reports whether every ring earned a complete verdict.
func (r *Report) Complete() bool {
	return r.ViolatedRings == 0 && r.PartialRings == 0
}

// Counters flattens the report into the txmetrics counter convention.
func (r *Report) Counters() map[string]uint64 {
	return map[string]uint64{
		"txcheck.txs_checked":      uint64(r.TxsChecked),
		"txcheck.committed":        uint64(r.Committed),
		"txcheck.aborted":          uint64(r.Aborted),
		"txcheck.aborted_verified": uint64(r.AbortedVerified),
		"txcheck.reads_checked":    uint64(r.ReadsChecked),
		"txcheck.commit_words":     uint64(r.CommitWords),
		"txcheck.violations":       uint64(len(r.Violations)),
		"txcheck.rings_complete":   uint64(r.CompleteRings),
		"txcheck.rings_partial":    uint64(r.PartialRings),
		"txcheck.rings_violated":   uint64(r.ViolatedRings),
		"txcheck.dropped_events":   r.DroppedEvents,
	}
}

// WriteTable renders the per-ring verdict table `tlstm-trace check`
// and `tlstm-stress -check` print: one line per ring, every violation,
// then totals and the checker's own throughput (elapsed is the Check
// call's wall time; pass 0 to omit the rate).
func (r *Report) WriteTable(w io.Writer, elapsed time.Duration) {
	for _, rr := range r.Rings {
		fmt.Fprintf(w, "ring %3d %-24q verdict=%-9s txs=%-6d committed=%-6d aborted=%-6d abortedVerified=%-6d reads=%-7d commitWords=%-7d drops=%-5d seqGaps=%d\n",
			rr.ID, rr.Label, rr.Verdict, rr.Attempts, rr.Committed, rr.Aborted,
			rr.AbortedVerified, rr.ReadsChecked, rr.CommitWords, rr.DroppedEvents, rr.SeqGaps)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "VIOLATION %s\n", v)
	}
	fmt.Fprintf(w, "total: txs=%d committed=%d aborted=%d abortedVerified=%d reads=%d violations=%d rings[complete=%d partial=%d violated=%d]\n",
		r.TxsChecked, r.Committed, r.Aborted, r.AbortedVerified,
		r.ReadsChecked, len(r.Violations), r.CompleteRings, r.PartialRings, r.ViolatedRings)
	verdict := "PASS"
	switch {
	case !r.Ok():
		verdict = "FAIL"
	case !r.Complete():
		verdict = "PASS (partial: ring overwrite lost events; the checked window is a suffix of the run)"
	}
	if elapsed > 0 {
		fmt.Fprintf(w, "opacity: %s (checked %d txs in %v, %.0f txs/sec)\n",
			verdict, r.TxsChecked, elapsed.Round(time.Microsecond),
			float64(r.TxsChecked)/elapsed.Seconds())
	} else {
		fmt.Fprintf(w, "opacity: %s (checked %d txs)\n", verdict, r.TxsChecked)
	}
}

// obs is one checked read: the slot its address hashes to and the
// version stamp the read observed.
type obs struct {
	addr  uint64
	slot  uint64
	stamp uint64
	seq   uint64
}

// attempt is one reconstructed transaction attempt on one ring.
type attempt struct {
	startSeq   uint64
	reads      []obs
	writes     map[uint64]uint64 // slot -> commit stamp (deduped)
	committed  bool
	terminated bool // saw Commit or Abort
	stamp      uint64
	lastSeq    uint64
}

// ringParse is one ring's reconstruction.
type ringParse struct {
	dump     *txtrace.RingDump
	attempts []attempt
	seqGaps  int
	skipped  int
}

// namespace is one runtime's slice of the trace: its rings, its lock
// layout, its clock model, and the per-slot version histories rebuilt
// from its committed transactions.
type namespace struct {
	name      string
	layout    locktable.Layout
	exclusive bool
	clockName string
	rings     []*ringParse
	dropFree  bool
	// hist maps slot -> sorted unique committed stamps on that slot.
	hist map[uint64][]uint64
}

// next returns the smallest committed stamp on slot strictly above v,
// or 0 if none is known (missing history is lenient, never a false
// positive: an unknown displacement cannot shrink the interval).
func (ns *namespace) next(slot, v uint64) uint64 {
	h := ns.hist[slot]
	i := sort.Search(len(h), func(i int) bool { return h[i] > v })
	if i == len(h) {
		return 0
	}
	return h[i]
}

func (ns *namespace) knows(slot, v uint64) bool {
	h := ns.hist[slot]
	i := sort.Search(len(h), func(i int) bool { return h[i] >= v })
	return i < len(h) && h[i] == v
}

// Check reconstructs and verifies every transaction attempt in the
// trace. It needs the runtime metadata a TXTRACE2 dump carries; a
// TXTRACE1 trace (no metadata, no CommitWord events) is rejected.
func Check(t *txtrace.Trace) (*Report, error) {
	if len(t.Meta) == 0 {
		return nil, fmt.Errorf("txcheck: trace carries no runtime metadata (TXTRACE1 dump?): re-record with the current recorder")
	}

	// Group rings by namespace and parse each into attempts.
	byNS := make(map[string]*namespace)
	order := []string{}
	reports := make([]RingReport, len(t.Rings))
	for i := range t.Rings {
		rd := &t.Rings[i]
		name := rd.Label
		if j := strings.IndexByte(name, '-'); j >= 0 {
			name = name[:j]
		}
		ns := byNS[name]
		if ns == nil {
			bitsStr, ok := t.Meta[name+".lockbits"]
			if !ok {
				return nil, fmt.Errorf("txcheck: ring %d (%s): no %q metadata in trace (runtime not armed with this recorder?)", rd.ID, rd.Label, name+".lockbits")
			}
			bits, err := strconv.Atoi(bitsStr)
			if err == nil && (bits < locktable.MinBits || bits > locktable.MaxBits) {
				err = fmt.Errorf("outside [%d,%d]", locktable.MinBits, locktable.MaxBits)
			}
			if err != nil {
				return nil, fmt.Errorf("txcheck: bad %s.lockbits %q: %v", name, bitsStr, err)
			}
			ns = &namespace{
				name:      name,
				layout:    locktable.NewLayout(bits),
				exclusive: t.Meta[name+".exclusive"] == "true",
				clockName: t.Meta[name+".clock"],
				dropFree:  true,
				hist:      make(map[uint64][]uint64),
			}
			byNS[name] = ns
			order = append(order, name)
		}
		rp := parseRing(rd, ns.layout)
		ns.rings = append(ns.rings, rp)
		if rd.Drops > 0 || rp.seqGaps > 0 {
			ns.dropFree = false
		}
		reports[i] = RingReport{
			ID:            rd.ID,
			Label:         rd.Label,
			Namespace:     name,
			DroppedEvents: rd.Drops,
			SeqGaps:       rp.seqGaps,
			SkippedEvents: rp.skipped,
		}
	}

	rep := &Report{}

	// Rebuild per-slot version histories from the attempts' written-word
	// events; under an exclusive clock, flag duplicate (slot, stamp)
	// pairs written by distinct transactions.
	for _, name := range order {
		ns := byNS[name]
		type stampSrc struct {
			ring *ringParse
			seq  uint64
		}
		seen := make(map[[2]uint64]stampSrc)
		for _, rp := range ns.rings {
			for ai := range rp.attempts {
				at := &rp.attempts[ai]
				// Not only committed attempts: the write-through runtime
				// releases an aborted attempt's locks at a fresh stamp (its
				// value unchanged), and an attempt cut off mid-publish has
				// stamped what it recorded. Either stamp can be observed.
				for slot, stamp := range at.writes {
					key := [2]uint64{slot, stamp}
					if first, dup := seen[key]; dup {
						if ns.exclusive {
							v := Violation{
								Ring:   rp.dump.Label,
								RingID: rp.dump.ID,
								Seq:    at.lastSeq,
								Code:   CodeDuplicateStamp,
								Msg: fmt.Sprintf("slot %d committed twice at stamp %d (first by ring %d seq %d): exclusive clock %q hands out unique stamps",
									slot, stamp, first.ring.dump.ID, first.seq, ns.clockName),
							}
							ringReportFor(reports, rp.dump.ID).Violations = append(ringReportFor(reports, rp.dump.ID).Violations, v)
						}
						continue
					}
					seen[key] = stampSrc{ring: rp, seq: at.lastSeq}
					ns.hist[slot] = append(ns.hist[slot], stamp)
				}
			}
		}
		for slot := range ns.hist {
			h := ns.hist[slot]
			sort.Slice(h, func(i, j int) bool { return h[i] < h[j] })
		}
	}

	// Check every attempt against its namespace's history.
	for _, name := range order {
		ns := byNS[name]
		for _, rp := range ns.rings {
			rr := ringReportFor(reports, rp.dump.ID)
			for ai := range rp.attempts {
				at := &rp.attempts[ai]
				rr.Attempts++
				rr.ReadsChecked += len(at.reads)
				rr.CommitWords += len(at.writes)
				clean := checkAttempt(ns, rp, at, rr)
				switch {
				case at.committed:
					rr.Committed++
				case at.terminated:
					rr.Aborted++
					if clean && len(at.reads) > 0 {
						rr.AbortedVerified++
					}
				default:
					rr.Unresolved++
				}
			}
		}
	}

	// Verdicts and totals.
	for i := range reports {
		rr := &reports[i]
		switch {
		case len(rr.Violations) > 0:
			rr.Verdict = VerdictViolated
			rep.ViolatedRings++
		case rr.DroppedEvents > 0 || rr.SeqGaps > 0:
			rr.Verdict = VerdictPartial
			rep.PartialRings++
		default:
			rr.Verdict = VerdictComplete
			rep.CompleteRings++
		}
		rep.TxsChecked += rr.Attempts
		rep.Committed += rr.Committed
		rep.Aborted += rr.Aborted
		rep.AbortedVerified += rr.AbortedVerified
		rep.Unresolved += rr.Unresolved
		rep.ReadsChecked += rr.ReadsChecked
		rep.CommitWords += rr.CommitWords
		rep.DroppedEvents += rr.DroppedEvents
		rep.Violations = append(rep.Violations, rr.Violations...)
	}
	rep.Rings = reports
	return rep, nil
}

// checkAttempt runs the interval, anchored-commit, and phantom checks
// on one attempt, appending violations to rr. It reports whether the
// attempt passed every check.
func checkAttempt(ns *namespace, rp *ringParse, at *attempt, rr *RingReport) bool {
	if len(at.reads) == 0 {
		return true
	}
	clean := true

	// Serialization interval: [max observed stamp, min next displacement).
	var lo uint64
	hi := uint64(0) // 0 = unbounded
	var hiObs, loObs obs
	for _, o := range at.reads {
		if o.stamp >= lo {
			lo, loObs = o.stamp, o
		}
		nx := ns.next(o.slot, o.stamp)
		if nx != 0 && (hi == 0 || nx < hi) {
			hi, hiObs = nx, o
		}
	}
	if hi != 0 && hi <= lo {
		clean = false
		rr.Violations = append(rr.Violations, Violation{
			Ring:   rp.dump.Label,
			RingID: rp.dump.ID,
			Seq:    hiObs.seq,
			Code:   CodeEmptyInterval,
			Msg: fmt.Sprintf("no serialization point: read of addr %#x observed stamp %d displaced at %d, but read of addr %#x observed stamp %d (attempt at seq %d saw an inconsistent snapshot)",
				hiObs.addr, hiObs.stamp, hi, loObs.addr, loObs.stamp, at.startSeq),
		})
	}

	// Committed writers under an exclusive clock serialize exactly at
	// their commit stamp: every read must survive to it.
	if at.committed && len(at.writes) > 0 && ns.exclusive {
		for _, o := range at.reads {
			nx := ns.next(o.slot, o.stamp)
			if nx != 0 && nx < at.stamp {
				clean = false
				rr.Violations = append(rr.Violations, Violation{
					Ring:   rp.dump.Label,
					RingID: rp.dump.ID,
					Seq:    o.seq,
					Code:   CodeStaleCommit,
					Msg: fmt.Sprintf("committed at stamp %d but read of addr %#x observed stamp %d displaced at %d: serialization cycle under exclusive clock %q",
						at.stamp, o.addr, o.stamp, nx, ns.clockName),
				})
			}
		}
	}

	// Drop-free traces have complete histories: every nonzero observed
	// stamp must have been written by some committed transaction.
	if ns.dropFree {
		for _, o := range at.reads {
			if o.stamp != 0 && !ns.knows(o.slot, o.stamp) {
				clean = false
				rr.Violations = append(rr.Violations, Violation{
					Ring:   rp.dump.Label,
					RingID: rp.dump.ID,
					Seq:    o.seq,
					Code:   CodePhantomVersion,
					Msg: fmt.Sprintf("read of addr %#x observed stamp %d, which no committed transaction wrote to slot %d (torn or fabricated version)",
						o.addr, o.stamp, o.slot),
				})
			}
		}
	}
	return clean
}

// parseRing walks one ring's events and reconstructs its attempts. A
// ring whose oldest events were overwritten starts mid-attempt: parsing
// resyncs to the first AttemptStart (counting what it skipped), and
// does the same after a defensive mid-ring sequence gap.
func parseRing(rd *txtrace.RingDump, layout locktable.Layout) *ringParse {
	rp := &ringParse{dump: rd}
	var cur *attempt
	resync := rd.Drops > 0
	var prevSeq uint64
	flush := func() {
		if cur != nil {
			rp.attempts = append(rp.attempts, *cur)
			cur = nil
		}
	}
	for i, e := range rd.Events {
		if i > 0 && e.Seq != prevSeq+1 {
			// Structurally impossible in a Validate-clean dump; resync
			// defensively and drop the interrupted attempt unchecked
			// (its read set may be missing events).
			rp.seqGaps++
			cur = nil
			resync = true
		}
		prevSeq = e.Seq
		if resync && txtrace.Kind(e.Kind) != txtrace.KindAttemptStart {
			rp.skipped++
			continue
		}
		switch txtrace.Kind(e.Kind) {
		case txtrace.KindAttemptStart:
			resync = false
			flush()
			cur = &attempt{startSeq: e.Seq, lastSeq: e.Seq}
		case txtrace.KindRead:
			// Aux 2 marks a TLSTM intra-thread speculative read (served
			// from a predecessor task's redo chain): it carries no
			// committed version stamp and is justified by the chain
			// order, not the clock.
			if cur != nil && e.Aux != 2 {
				cur.reads = append(cur.reads, obs{
					addr:  e.Arg,
					slot:  layout.Index(tm.Addr(e.Arg)),
					stamp: e.Clock,
					seq:   e.Seq,
				})
				cur.lastSeq = e.Seq
			}
		case txtrace.KindCommitWord:
			if cur != nil {
				if cur.writes == nil {
					cur.writes = make(map[uint64]uint64, 8)
				}
				cur.writes[layout.Index(tm.Addr(e.Arg))] = e.Clock
				cur.lastSeq = e.Seq
			}
		case txtrace.KindCommit:
			if cur != nil {
				cur.committed = true
				cur.terminated = true
				cur.stamp = e.Clock
				cur.lastSeq = e.Seq
				flush()
			}
		case txtrace.KindAbort:
			if cur != nil {
				cur.terminated = true
				cur.lastSeq = e.Seq
				flush()
			}
		}
	}
	flush()
	return rp
}

func ringReportFor(reports []RingReport, id uint32) *RingReport {
	for i := range reports {
		if reports[i].ID == id {
			return &reports[i]
		}
	}
	panic("txcheck: unknown ring id")
}
