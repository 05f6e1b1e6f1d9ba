// Package txtrace is the flight-recorder tracing layer of the runtime:
// per-thread, allocation-free ring buffers of compact binary event
// records, written through a Tracer interface whose default
// implementation is a no-op so the warmed hot paths keep their
// zero-alloc guarantee when tracing is off.
//
// The design follows the txstats shard idiom: every recording context
// (an stm Worker, a tl2/wtstm pooled descriptor, a TLSTM task) owns one
// Ring and is the only writer to it, so the record path is a plain
// store into a pre-allocated slot — no atomics except the drop counter,
// no locks, no allocation. Rings are registered with a Recorder, which
// dumps them after the run has quiesced (every owner joined); the
// happens-before edge that makes the dump race-free is the caller's
// join/Sync, exactly like the stats merge.
//
// Events carry the commit-clock value current at the probe point and a
// monotonic per-ring sequence number, so a dump can be merged across
// rings into one timeline and checked for per-thread monotonicity. The
// binary dump format (see dump.go) is deliberately the input the
// trace-based opacity checker will parse: it is self-describing,
// versioned by magic, and loses nothing the checker needs (a ring
// overrun drops oldest events and says how many).
package txtrace

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies one trace event. The kinds cover the probe points
// every runtime shares; a runtime that lacks a phase (TL2 cannot
// extend) simply never emits that kind.
type Kind uint8

const (
	// KindTxBegin marks the start of a transaction (first attempt of
	// the whole transaction, not of one retry). Arg: transaction serial
	// where the runtime has one, else 0.
	KindTxBegin Kind = iota + 1
	// KindAttemptStart marks the start of one attempt (initial or
	// retry). Arg: attempt ordinal, 1-based.
	KindAttemptStart
	// KindRead records one transactional load. Arg: word address.
	KindRead
	// KindWrite records one transactional store. Arg: word address.
	KindWrite
	// KindValidate records a read-set validation pass. Arg: read-set
	// length; Aux: 1 if the validation succeeded, 0 if it failed.
	KindValidate
	// KindExtend records a snapshot extension. Arg: the new snapshot
	// bound; Aux: 1 on success, 0 on failure.
	KindExtend
	// KindCMDecision records a contention-manager verdict. Aux packs
	// the decision and conflict point (CMAux); Arg: word address of the
	// contended location where available.
	KindCMDecision
	// KindAbort records an attempt rollback. Aux: abort-reason code
	// (Abort* constants).
	KindAbort
	// KindCommit records a successful final commit. Clock carries the
	// commit timestamp; Arg: write-set length.
	KindCommit
	// KindReclaim records a write-lock entry reuse served from a
	// quiescence ring. Arg: retirement serial; Aux: low bits of the
	// retirement epoch.
	KindReclaim
	// kindRemap (11) is retired: it recorded a thread-placement rebind,
	// which no runtime makes any more. The value stays reserved and
	// named so that older dumps still read and print, and the kinds
	// after it keep their numbers.
	kindRemap
	// KindCommitWord records one word published by a committing
	// transaction, emitted between a successful KindValidate and the
	// closing KindCommit. Arg: word address; Clock: the commit
	// timestamp. These events give the opacity checker the written-word
	// identities it needs to rebuild per-slot version histories.
	KindCommitWord
	// KindModeShift recorded a transition of the former adaptive mode
	// ladder on the recording thread. Arg: the new rung (0 speculative,
	// 1 serialized); Aux: the previous one. No runtime records it now;
	// it keeps its number and name so older dumps still parse.
	KindModeShift
	// KindRetryPark records the Retry/Wait cond-var path. Aux: 0 when
	// the transaction parks on its doorbell, 1 when a conflicting
	// commit wakes it; Arg: the read-set fingerprint it parked on.
	KindRetryPark

	kindMax
)

var kindNames = [...]string{
	KindTxBegin:      "TxBegin",
	KindAttemptStart: "AttemptStart",
	KindRead:         "Read",
	KindWrite:        "Write",
	KindValidate:     "Validate",
	KindExtend:       "Extend",
	KindCMDecision:   "CMDecision",
	KindAbort:        "Abort",
	KindCommit:       "Commit",
	KindReclaim:      "Reclaim",
	kindRemap:        "Remap",
	KindCommitWord:   "CommitWord",
	KindModeShift:    "ModeShift",
	KindRetryPark:    "RetryPark",
}

// String names the kind for dumps.
func (k Kind) String() string {
	if k >= 1 && k < kindMax {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Abort-reason codes carried in the Aux field of KindAbort events.
const (
	// AbortValidation: read-set validation failed (stale read).
	AbortValidation uint32 = iota + 1
	// AbortConflict: a write/lock conflict aborted this attempt.
	AbortConflict
	// AbortExtend: a snapshot extension failed.
	AbortExtend
	// AbortCM: the contention manager chose this side as the victim.
	AbortCM
	// AbortSignal: another context signalled this transaction to abort
	// (TLSTM inter-task abort, abort-owner verdicts).
	AbortSignal
	// AbortSpec: a TLSTM task restarted for a speculation-specific
	// reason (stale intra-thread read, redo-chain change, sandboxing).
	AbortSpec
	// AbortRetry: the transaction called Retry — the attempt unwinds,
	// parks on the wait hub, and re-runs after a conflicting commit.
	AbortRetry
)

// AbortReasonString names an abort code for dumps.
func AbortReasonString(code uint32) string {
	switch code {
	case AbortValidation:
		return "validation"
	case AbortConflict:
		return "conflict"
	case AbortExtend:
		return "extend"
	case AbortCM:
		return "cm"
	case AbortSignal:
		return "signal"
	case AbortSpec:
		return "speculation"
	case AbortRetry:
		return "retry"
	default:
		return fmt.Sprintf("reason(%d)", code)
	}
}

// CMAux packs a contention-manager decision and conflict point into the
// Aux field of a KindCMDecision event. decision and point are the
// integer values of cm.Decision and cm.Point (not imported here: txtrace
// must stay leaf-level so every package can use it).
func CMAux(decision, point int) uint32 {
	return uint32(decision)&0xff | uint32(point)<<8
}

// CMAuxDecode splits an Aux packed by CMAux.
func CMAuxDecode(aux uint32) (decision, point int) {
	return int(aux & 0xff), int(aux >> 8)
}

// Event is one fixed-size trace record. Time is nanoseconds since the
// Recorder's base instant (monotonic); Clock is the commit-clock value
// observed at the probe point; Seq is the ring's monotonic sequence
// number. Arg and Aux are kind-specific (see the Kind constants).
type Event struct {
	Seq   uint64
	Time  int64
	Clock uint64
	Arg   uint64
	Aux   uint32
	Kind  uint8
}

// Tracer is the interface the runtimes record through. The default
// implementation (Nop) reports disabled and records nothing; the
// runtimes additionally cache Enabled() in a plain bool so the disabled
// hot path costs one predicted branch, not an interface call.
type Tracer interface {
	// Enabled reports whether Record does anything. Constant over the
	// tracer's lifetime.
	Enabled() bool
	// Record appends one event. Owner-only: a Tracer must only be
	// called from the single context that owns it.
	Record(k Kind, clock, arg uint64, aux uint32)
}

type nopTracer struct{}

func (nopTracer) Enabled() bool                       { return false }
func (nopTracer) Record(Kind, uint64, uint64, uint32) {}

// Nop is the default tracer: records nothing, reports disabled.
var Nop Tracer = nopTracer{}

// DefaultRingCap is the per-ring event capacity used when a Recorder is
// built with cap <= 0: 64 KiB of events per ring (40 B each, ~2.6 MiB).
const DefaultRingCap = 1 << 16

// Ring is a single-owner flight-recorder ring: a pre-allocated
// power-of-two buffer of events plus a monotonic cursor. Record
// overwrites the oldest event once full and bumps the drop counter —
// the recorder never blocks and never allocates on the record path.
//
// Ownership: exactly one goroutine-context calls Record (the runtimes
// hand each Worker/descriptor/Task its own ring). Drops is the only
// field read concurrently (live metrics), hence the only atomic. The
// buffer itself is read by Dump only after the owner has quiesced.
type Ring struct {
	rec   *Recorder
	id    uint32
	label string
	buf   []Event
	mask  uint64
	next  uint64 // owner-only cursor: total events ever recorded
	drops atomic.Uint64
}

// Enabled implements Tracer: a real ring always records.
func (r *Ring) Enabled() bool { return true }

// Record implements Tracer: one plain store into the pre-allocated
// buffer. 0 allocs/op (asserted in alloc_norace_test.go).
func (r *Ring) Record(k Kind, clock, arg uint64, aux uint32) {
	if r.next >= uint64(len(r.buf)) {
		r.drops.Add(1) // overwriting the oldest event
	}
	r.buf[r.next&r.mask] = Event{
		Seq:   r.next,
		Time:  int64(time.Since(r.rec.base)),
		Clock: clock,
		Arg:   arg,
		Aux:   aux,
		Kind:  uint8(k),
	}
	r.next++
}

// ID reports the ring's recorder-assigned identity (the Perfetto tid).
func (r *Ring) ID() uint32 { return r.id }

// Label reports the owner label the ring was registered with.
func (r *Ring) Label() string { return r.label }

// Drops reports how many oldest events have been overwritten. Safe to
// read concurrently with the owner recording.
func (r *Ring) Drops() uint64 { return r.drops.Load() }

// events returns the retained events oldest-first. Owner-quiesced only.
func (r *Ring) events() []Event {
	n := r.next
	if n <= uint64(len(r.buf)) {
		out := make([]Event, n)
		copy(out, r.buf[:n])
		return out
	}
	out := make([]Event, len(r.buf))
	start := n & r.mask
	copy(out, r.buf[start:])
	copy(out[uint64(len(r.buf))-start:], r.buf[:start])
	return out
}

// Recorder owns a run's rings: it hands them out (NewRing), sums their
// drop counters for live metrics, and serializes them (Dump) once every
// owner has quiesced. The registry mutex guards registration only —
// recording never takes it.
type Recorder struct {
	base    time.Time
	started int64 // wall-clock ns at base, for the dump header
	ringCap int

	mu    sync.Mutex
	rings []*Ring
	meta  map[string]string
}

// NewRecorder builds a recorder whose rings each hold ringCap events,
// rounded up to a power of two (DefaultRingCap if ringCap <= 0).
func NewRecorder(ringCap int) *Recorder {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	if ringCap&(ringCap-1) != 0 {
		ringCap = 1 << bits.Len(uint(ringCap))
	}
	now := time.Now()
	return &Recorder{base: now, started: now.UnixNano(), ringCap: ringCap}
}

// NewRing registers and returns a new ring for one recording context.
// Labels need not be unique (pooled descriptors register one ring per
// incarnation); the auto-assigned ID is.
func (rec *Recorder) NewRing(label string) *Ring {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	r := &Ring{
		rec:   rec,
		id:    uint32(len(rec.rings)),
		label: label,
		buf:   make([]Event, rec.ringCap),
		mask:  uint64(rec.ringCap - 1),
	}
	rec.rings = append(rec.rings, r)
	return r
}

// SetMeta records one key/value pair in the recorder's metadata table,
// serialized into the dump header (TXTRACE2). Runtimes register the
// configuration the offline checker needs to reinterpret raw events —
// lock-table bits, clock — under namespaced keys ("stm.lockbits",
// "core.clock", ...) so several runtimes can share one recorder.
// Registration-time only, like NewRing: never called on a hot path.
func (rec *Recorder) SetMeta(key, value string) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.meta == nil {
		rec.meta = make(map[string]string)
	}
	rec.meta[key] = value
}

// Meta returns a copy of the recorder's metadata table.
func (rec *Recorder) Meta() map[string]string {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := make(map[string]string, len(rec.meta))
	for k, v := range rec.meta {
		out[k] = v
	}
	return out
}

// Rings returns the registered rings (registration order).
func (rec *Recorder) Rings() []*Ring {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]*Ring(nil), rec.rings...)
}

// Drops sums every ring's drop counter. Safe to call live.
func (rec *Recorder) Drops() uint64 {
	var n uint64
	for _, r := range rec.Rings() {
		n += r.Drops()
	}
	return n
}

// Events reports the total number of retained events across rings.
// Owner-quiesced only (reads the owner cursors).
func (rec *Recorder) Events() uint64 {
	var n uint64
	for _, r := range rec.Rings() {
		if r.next < uint64(len(r.buf)) {
			n += r.next
		} else {
			n += uint64(len(r.buf))
		}
	}
	return n
}
