package txcheck

import (
	"bytes"
	"strings"
	"testing"

	"tlstm/internal/txtrace"
)

// traceBuilder synthesizes checker-input traces event by event — the
// mutation harness: a checker that has never seen a violation is
// untested, so each seeded-violation test builds the exact interleaving
// a broken runtime would have recorded and asserts the checker flags it.
type traceBuilder struct {
	t    *txtrace.Trace
	ring *txtrace.RingDump
	seq  uint64
	time int64
}

func newTraceBuilder(meta map[string]string) *traceBuilder {
	return &traceBuilder{t: &txtrace.Trace{Meta: meta}}
}

// gv4Meta is the exclusive-clock stm namespace every mutation test uses
// unless it is specifically about clock gating.
func gv4Meta() map[string]string {
	return map[string]string{
		"stm.lockbits":  "16",
		"stm.clock":     "gv4",
		"stm.exclusive": "true",
		"stm.mvdepth":   "0",
	}
}

func (b *traceBuilder) newRing(label string) *traceBuilder {
	b.t.Rings = append(b.t.Rings, txtrace.RingDump{ID: uint32(len(b.t.Rings)), Label: label})
	b.ring = &b.t.Rings[len(b.t.Rings)-1]
	b.seq = 0
	return b
}

func (b *traceBuilder) ev(k txtrace.Kind, clock, arg uint64, aux uint32) *traceBuilder {
	b.time++
	b.ring.Events = append(b.ring.Events, txtrace.Event{
		Seq: b.seq, Time: b.time, Clock: clock, Arg: arg, Aux: aux, Kind: uint8(k),
	})
	b.seq++
	return b
}

func (b *traceBuilder) begin() *traceBuilder {
	return b.ev(txtrace.KindTxBegin, 0, 0, 0).ev(txtrace.KindAttemptStart, 0, 1, 0)
}
func (b *traceBuilder) read(addr, stamp uint64) *traceBuilder {
	return b.ev(txtrace.KindRead, stamp, addr, 0)
}
func (b *traceBuilder) mvRead(addr, stamp uint64) *traceBuilder {
	return b.ev(txtrace.KindRead, stamp, addr, 1)
}
func (b *traceBuilder) commit(stamp uint64, addrs ...uint64) *traceBuilder {
	for _, a := range addrs {
		b.ev(txtrace.KindCommitWord, stamp, a, 0)
	}
	return b.ev(txtrace.KindCommit, stamp, uint64(len(addrs)), 0)
}
func (b *traceBuilder) abort() *traceBuilder {
	return b.ev(txtrace.KindAbort, 0, 0, txtrace.AbortValidation)
}

func mustCheck(t *testing.T, tr *txtrace.Trace) *Report {
	t.Helper()
	rep, err := Check(tr)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return rep
}

func wantViolation(t *testing.T, rep *Report, code string) {
	t.Helper()
	for _, v := range rep.Violations {
		if v.Code == code {
			return
		}
	}
	t.Fatalf("checker missed a seeded %s violation; got %v", code, rep.Violations)
}

// Distinct small addresses land in distinct 2^16 slots under Fibonacci
// hashing; a collision would make the mutation tests fail loudly (the
// seeded violations depend on the slots being distinct).
const (
	addrX = 0x1000
	addrY = 0x2000
	addrZ = 0x3000
)

func TestMutationDoomedReadAcrossCommit(t *testing.T) {
	// A writer commits X and Y atomically at stamp 5. The victim read X
	// before that commit (version 0) and Y after it (version 5) without
	// revalidating: no instant ever held both values, even though the
	// victim eventually aborted. Opacity says doomed transactions count.
	b := newTraceBuilder(gv4Meta())
	b.newRing("stm-worker-0").begin().commit(5, addrX, addrY)
	b.newRing("stm-worker-1").begin().read(addrX, 0).read(addrY, 5).abort()
	rep := mustCheck(t, b.t)
	wantViolation(t, rep, CodeEmptyInterval)
}

func TestMutationTornMultiVersionRead(t *testing.T) {
	// X's version history is {5, 7}. A read-only snapshot that was
	// served X@5 from the version store cannot also contain Y@9: X@5
	// died at 7. A multi-version store serving a recycled or
	// half-overwritten entry produces exactly this shape.
	b := newTraceBuilder(gv4Meta())
	b.newRing("stm-worker-0").
		begin().commit(5, addrX).
		begin().commit(7, addrX).
		begin().commit(9, addrY)
	b.newRing("stm-worker-1").begin().mvRead(addrX, 5).mvRead(addrY, 9).ev(txtrace.KindCommit, 9, 0, 0)
	rep := mustCheck(t, b.t)
	wantViolation(t, rep, CodeEmptyInterval)
}

func TestMutationSerializationCycle(t *testing.T) {
	// T1 read X@0 and committed Y at stamp 10; T2 read Y@0 and
	// committed X at stamp 5. Under an exclusive clock stamps are the
	// serialization order, so T1 (serialized at 10) read an X that T2
	// (serialized at 5) had already displaced — a write-skew cycle the
	// per-attempt interval check alone cannot see.
	b := newTraceBuilder(gv4Meta())
	b.newRing("stm-worker-0").begin().read(addrX, 0).commit(10, addrY)
	b.newRing("stm-worker-1").begin().read(addrY, 0).commit(5, addrX)
	rep := mustCheck(t, b.t)
	wantViolation(t, rep, CodeStaleCommit)
}

func TestMutationPhantomVersion(t *testing.T) {
	// A read observed X@7 but no committed transaction in this
	// drop-free trace ever stamped X's slot with 7: the version was
	// torn or fabricated.
	b := newTraceBuilder(gv4Meta())
	b.newRing("stm-worker-0").begin().commit(5, addrX)
	b.newRing("stm-worker-1").begin().read(addrX, 7).abort()
	rep := mustCheck(t, b.t)
	wantViolation(t, rep, CodePhantomVersion)
}

func TestAbortReleaseStampIsHistory(t *testing.T) {
	// The write-through runtime releases an aborted attempt's locks at a
	// fresh stamp, recorded as written-word events before the abort
	// event. A later read that observes that stamp is not a phantom, and
	// the stamp bounds the older version's lifetime like any other: X@5
	// died at 7, so a snapshot holding it cannot also hold Y@9.
	b := newTraceBuilder(gv4Meta())
	b.newRing("stm-worker-0").
		begin().commit(5, addrX).
		begin().ev(txtrace.KindCommitWord, 7, addrX, 0).abort().
		begin().commit(9, addrY)
	b.newRing("stm-worker-1").begin().read(addrX, 7).read(addrY, 9).ev(txtrace.KindCommit, 9, 0, 0)
	if rep := mustCheck(t, b.t); !rep.Ok() {
		t.Fatalf("read of an abort-release stamp flagged: %v", rep.Violations)
	}
	b.newRing("stm-worker-2").begin().read(addrX, 5).read(addrY, 9).abort()
	wantViolation(t, mustCheck(t, b.t), CodeEmptyInterval)
}

func TestMutationDuplicateStamp(t *testing.T) {
	// Two distinct transactions committed X at stamp 5. gv4's
	// fetch-and-add hands out unique stamps, so a correct run cannot
	// produce this.
	b := newTraceBuilder(gv4Meta())
	b.newRing("stm-worker-0").begin().commit(5, addrX)
	b.newRing("stm-worker-1").begin().commit(5, addrX)
	rep := mustCheck(t, b.t)
	wantViolation(t, rep, CodeDuplicateStamp)
}

func TestExclusiveOnlyChecksGatedOffSharedStampClocks(t *testing.T) {
	// The same cycle shape under a deferred clock must NOT be flagged:
	// shared-stamp clocks legitimately break stamp-order-equals-
	// serialization-order (see the clock package's (T1) argument), and
	// a checker with false positives is worse than no checker.
	meta := gv4Meta()
	meta["stm.clock"] = "deferred"
	meta["stm.exclusive"] = "false"
	b := newTraceBuilder(meta)
	b.newRing("stm-worker-0").begin().read(addrX, 0).commit(10, addrY)
	b.newRing("stm-worker-1").begin().read(addrY, 0).commit(5, addrX)
	rep := mustCheck(t, b.t)
	if !rep.Ok() {
		t.Fatalf("anchored check fired under a non-exclusive clock: %v", rep.Violations)
	}
}

func TestCleanTraceComplete(t *testing.T) {
	b := newTraceBuilder(gv4Meta())
	b.newRing("stm-worker-0").
		begin().read(addrX, 0).commit(1, addrY).
		begin().read(addrY, 1).commit(2, addrX)
	b.newRing("stm-worker-1").
		begin().read(addrY, 1).abort().
		begin().read(addrY, 1).read(addrX, 2).ev(txtrace.KindCommit, 2, 0, 0)
	rep := mustCheck(t, b.t)
	if !rep.Ok() || !rep.Complete() {
		t.Fatalf("clean trace not complete/ok: violations=%v partial=%d", rep.Violations, rep.PartialRings)
	}
	if rep.TxsChecked != 4 || rep.Committed != 3 || rep.Aborted != 1 {
		t.Fatalf("tallies: txs=%d committed=%d aborted=%d; want 4/3/1", rep.TxsChecked, rep.Committed, rep.Aborted)
	}
	if rep.AbortedVerified != 1 {
		t.Fatalf("AbortedVerified = %d, want 1", rep.AbortedVerified)
	}
}

func TestDropsDowngradeToPartialAndDisablePhantom(t *testing.T) {
	// A ring that overwrote events yields a partial verdict, resyncs to
	// the first retained AttemptStart, and turns the phantom check off
	// for the whole namespace — the dropped window may hold the commit
	// that wrote the otherwise-unexplained stamp.
	b := newTraceBuilder(gv4Meta())
	b.newRing("stm-worker-0")
	b.ring.Drops = 3
	b.seq = 3
	// Retained window starts mid-attempt: a dangling read, then a full
	// attempt observing a stamp nobody in the window wrote.
	b.ev(txtrace.KindRead, 4, addrX, 0).
		ev(txtrace.KindAttemptStart, 0, 2, 0).read(addrX, 7).abort()
	rep := mustCheck(t, b.t)
	if !rep.Ok() {
		t.Fatalf("phantom check fired on a lossy trace: %v", rep.Violations)
	}
	rr := rep.Rings[0]
	if rr.Verdict != VerdictPartial {
		t.Fatalf("verdict = %q, want %q", rr.Verdict, VerdictPartial)
	}
	if rr.SkippedEvents != 1 {
		t.Fatalf("SkippedEvents = %d, want 1 (the dangling pre-AttemptStart read)", rr.SkippedEvents)
	}
	if rep.TxsChecked != 1 {
		t.Fatalf("TxsChecked = %d, want 1", rep.TxsChecked)
	}
}

func TestSpeculativeReadsSkipped(t *testing.T) {
	// TLSTM intra-thread speculative reads (Aux 2) carry no committed
	// version stamp; they are justified by redo-chain order, not the
	// clock, and must not feed the interval check.
	meta := map[string]string{
		"core.lockbits": "14", "core.clock": "gv4",
		"core.exclusive": "true", "core.mvdepth": "0",
	}
	b := newTraceBuilder(meta)
	b.newRing("core-thr0-slot0").begin().
		ev(txtrace.KindRead, 0, addrX, 2). // spec read, stamp field is 0
		read(addrY, 0).
		commit(1, addrY)
	rep := mustCheck(t, b.t)
	if !rep.Ok() {
		t.Fatalf("speculative read leaked into the checks: %v", rep.Violations)
	}
	if rep.ReadsChecked != 1 {
		t.Fatalf("ReadsChecked = %d, want 1 (spec read skipped)", rep.ReadsChecked)
	}
}

func TestRejectsTraceWithoutMeta(t *testing.T) {
	tr := &txtrace.Trace{Rings: []txtrace.RingDump{{Label: "stm-worker"}}}
	if _, err := Check(tr); err == nil || !strings.Contains(err.Error(), "metadata") {
		t.Fatalf("Check on a TXTRACE1-shaped trace: err = %v, want metadata error", err)
	}
}

func TestRejectsRingWithUnknownNamespace(t *testing.T) {
	b := newTraceBuilder(gv4Meta())
	b.newRing("mystery-ring").begin().commit(1, addrX)
	if _, err := Check(b.t); err == nil || !strings.Contains(err.Error(), "mystery.lockbits") {
		t.Fatalf("err = %v, want missing mystery.lockbits", err)
	}
}

// TestRejectsLockBitsOutOfRange: the lock-table geometry comes from the
// dump, so a value the lock table cannot be built with is an error like a
// non-numeric one, never a panic.
func TestRejectsLockBitsOutOfRange(t *testing.T) {
	for _, bits := range []string{"99", "3", "-1", "x"} {
		meta := gv4Meta()
		meta["stm.lockbits"] = bits
		b := newTraceBuilder(meta)
		b.newRing("stm-worker").begin().commit(1, addrX)
		if _, err := Check(b.t); err == nil || !strings.Contains(err.Error(), "stm.lockbits") {
			t.Fatalf("lockbits %q: err = %v, want a bad stm.lockbits error", bits, err)
		}
	}
}

// recordedDump serializes a one-transaction stm trace through the real
// recorder, its lockbits metadata set to bits.
func recordedDump(tb testing.TB, bits string) []byte {
	rec := txtrace.NewRecorder(256)
	for k, v := range gv4Meta() {
		rec.SetMeta(k, v)
	}
	rec.SetMeta("stm.lockbits", bits)
	r := rec.NewRing("stm-worker-0")
	r.Record(txtrace.KindTxBegin, 0, 0, 0)
	r.Record(txtrace.KindAttemptStart, 0, 1, 0)
	r.Record(txtrace.KindRead, 0, addrX, 0)
	r.Record(txtrace.KindCommitWord, 1, addrY, 0)
	r.Record(txtrace.KindCommit, 1, 1, 0)

	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		tb.Fatalf("Dump: %v", err)
	}
	return buf.Bytes()
}

// TestRoundTripThroughDump drives the real recorder end to end: meta
// registration, ring recording, TXTRACE2 serialization, and a complete
// clean verdict out the other side.
func TestRoundTripThroughDump(t *testing.T) {
	tr, err := txtrace.ReadTrace(bytes.NewReader(recordedDump(t, "16")))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if tr.Meta["stm.clock"] != "gv4" {
		t.Fatalf("meta lost in round trip: %v", tr.Meta)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	rep := mustCheck(t, tr)
	if !rep.Ok() || !rep.Complete() {
		t.Fatalf("round-tripped clean trace: violations=%v complete=%v", rep.Violations, rep.Complete())
	}
	if rep.Committed != 1 || rep.CommitWords != 1 {
		t.Fatalf("tallies: committed=%d commitWords=%d, want 1/1", rep.Committed, rep.CommitWords)
	}
}
