// Package txrt is the engine kit the runtimes are built from: what
// SwissTM (stm), TL2 (tl2), the write-through STM (wtstm) and TLSTM
// (core) share outside their algorithms, so that they differ only where
// the algorithms differ and a cross-cutting feature is wired once.
//
//   - Counters / Stats: the statistics every runtime counts the same
//     way, with one Add/Minus (stats.go);
//   - Config / Option / Env: the option set, its defaults, and the
//     runtime-wide state built from it — memory, commit clock,
//     contention manager, version store, serialized gate, Retry hub
//     (this file);
//   - Desc / Algorithm: the transaction descriptor and the
//     flat-transaction driver (driver.go);
//   - the shared read side: the multi-version probe and exit (ReadMV,
//     ExitMV), SwissTM's committed read (ReadCommitted), post-write
//     snapshot check (CoverWrite), snapshot extension (Extend) and
//     commit-time read validation (ValidateReads) (read.go);
//   - SwissTM's commit over a pair lock table, taking a transaction's
//     logs in program order — one pair for stm and core's solo task, one
//     per task for a TLSTM ring transaction (Commit, commit.go).
//
// A flat runtime's *Tx embeds Desc, implements tm.Tx, and supplies:
//
//	Begin() uint64     per-attempt reset; samples and returns the snapshot
//	Exec()             run the user body, then commit
//	Release()          drop held locks / undo in-place writes (abort, panic)
//	SetSizes()         the committed attempt's read- and write-set sizes
//	Load, Store, Retry the algorithm's access path; it aborts through
//	                   Desc.Abort / Desc.ResolveConflict, charges work
//	                   through Desc.Tick, arms Retry with Desc.ArmPark
//	                   and reads multi-versioned through Desc.ReadMV
//
// Desc.Run calls the first four through the Algorithm interface once
// per attempt and owns everything else: retry loop, serialized gate,
// Retry parking, CM backoff, user-panic cleanup and the stats fold
// (Desc.Close).
//
// TLSTM's core is on the kit too: core.Task embeds Desc, and every
// attempt of a task runs on this driver. A transaction that does not
// ship runs on the thread's solo task through RunOn and Commit, as stm
// runs one (TLSTM-1 is SwissTM); each ring task of a shipped or submitted
// one is a Speculative Algorithm run through Attempts, while core keeps
// the transaction's boundaries (abort rendezvous, commit order, gate),
// commits it through Commit over every task's logs and closes each task
// (Close).
package txrt

import (
	"strconv"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/txlog"
	"tlstm/internal/txtrace"
)

// The virtual-time model's constants, shared so cross-runtime
// comparisons in work units stay meaningful.
const (
	// WaitRoundCost is the work charged per round of a wait loop: while
	// a transaction spins on another's lock (or a task on its past
	// writer) the owner progresses by about this much. It is accounting
	// only. The access path makes no scheduler call — transactions
	// overlap because they run on different CPUs, or because a workload's
	// own body yields.
	WaitRoundCost = 64
	// TxStartCost models per-attempt setup (descriptor and log
	// initialization, timestamp read). TLSTM charges it per task, which
	// bounds its task-split speedup (paper Fig. 1a).
	TxStartCost = 24
	// ValidationStride discounts validation: one work unit per this many
	// log entries checked (a version compare is roughly an order of
	// magnitude cheaper than an instrumented load).
	ValidationStride = 8
)

// DefaultLockTableBits sizes the lock table (2^bits) when unset.
const DefaultLockTableBits = 20

// Config is the option set the runtimes share. The flat runtimes fill
// it through Options; core.Config maps onto it.
type Config struct {
	LockTableBits int // log2 of the lock-table size; <= 0 means the default
	Clock         clock.Source
	CM            cm.Policy
	MVDepth       int // retained versions per word; <= 0 disables
	Trace         *txtrace.Recorder
	Mode          mode.Config
}

// Option configures a flat runtime.
type Option func(*Config)

// Apply runs opts over c.
func (c *Config) Apply(opts []Option) {
	for _, o := range opts {
		o(c)
	}
}

// WithClock injects the commit clock (internal/clock); the default is a
// fresh GV4. The source must keep GV4's contract (unique ticks,
// published on return): tl2 and wtstm skip commit validation when their
// stamp is exactly their read version + 1. A decorator that counts calls
// into a GV4 does.
func WithClock(src clock.Source) Option { return func(c *Config) { c.Clock = src } }

// WithCM selects the contention-management policy (internal/cm); nil
// keeps the runtime's default (greedy for stm, suicide for tl2/wtstm,
// whose anonymous version locks resolve against a nil owner).
func WithCM(pol cm.Policy) Option { return func(c *Config) { c.CM = pol } }

// WithMultiVersion retains the last k displaced committed versions per
// word and enables the wait-free read path for transactions run through
// AtomicRO. k <= 0 disables multi-versioning (the default).
func WithMultiVersion(k int) Option { return func(c *Config) { c.MVDepth = k } }

// WithTrace arms flight-recorder tracing: every descriptor records its
// transactional events into its own txtrace ring registered with rec.
// nil (the default) keeps the no-op tracer and the zero-alloc hot path.
func WithTrace(rec *txtrace.Recorder) Option { return func(c *Config) { c.Trace = rec } }

// WithMode selects the execution rung (internal/mode): under
// mode.Serial every transaction runs under the runtime's gate. The
// default (and the former adaptive policy) runs every transaction
// speculatively.
func WithMode(cfg mode.Config) Option { return func(c *Config) { c.Mode = cfg } }

// Env is the runtime-wide state every runtime builds from a Config. A
// runtime embeds it by value (it holds a mutex: never copy it) and
// initializes it in place with Init.
type Env struct {
	Store *mem.Store
	Alloc *mem.Allocator

	// Layout is the address→lock geometry; the runtime allocates its
	// own lock storage over it.
	Layout locktable.Layout

	Clk clock.Source
	CM  cm.Policy

	// MV, when non-nil, is the multi-version word store declared
	// read-only transactions read from without validating.
	MV *txlog.VersionedStore

	// Trace, when non-nil, is the flight recorder descriptors register
	// their event rings with.
	Trace *txtrace.Recorder

	// Serial runs every transaction under Gate (mode.Serial); Hub parks
	// Retry waiters.
	Serial bool
	Gate   mode.Gate
	Hub    *mode.WaitHub
}

// Init fills cfg's defaults (defaultCM is the runtime's own default
// contention manager), builds the environment, and returns the filled
// Config. ns prefixes the trace metadata the offline opacity checker
// reads: it recomputes lock-table slots and picks its clock model from
// <ns>.{lockbits,clock,exclusive,mvdepth} (the clock keys are always
// gv4/true; the checker still reads older dumps that say otherwise).
//
// The runtime passes its own word store (mem.NewStore()) rather than
// Init making one: the compiler inlines (*mem.Store).LoadWord/StoreWord
// into a package's access path only if that package imports mem
// itself, and an out-of-line call there costs ~5% on read-heavy
// workloads.
func (e *Env) Init(ns string, store *mem.Store, cfg Config, defaultCM cm.Kind) Config {
	if cfg.LockTableBits <= 0 {
		cfg.LockTableBits = DefaultLockTableBits
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.New(clock.KindGV4)
	}
	if cfg.CM == nil {
		cfg.CM = cm.New(defaultCM)
	}

	e.Store = store
	e.Alloc = mem.NewAllocator(e.Store)
	e.Layout = locktable.NewLayout(cfg.LockTableBits)
	e.Clk = cfg.Clock
	e.CM = cfg.CM
	if cfg.MVDepth > 0 {
		e.MV = txlog.NewVersionedStore(cfg.MVDepth, txlog.DefaultVersionedStoreBits)
	}
	e.Trace = cfg.Trace
	e.Serial = cfg.Mode.Policy == mode.Serial
	e.Hub = mode.NewWaitHub()
	if e.Trace != nil {
		e.Trace.SetMeta(ns+".lockbits", strconv.Itoa(cfg.LockTableBits))
		e.Trace.SetMeta(ns+".clock", "gv4")
		e.Trace.SetMeta(ns+".exclusive", "true")
		e.Trace.SetMeta(ns+".mvdepth", strconv.Itoa(e.MVDepth()))
	}
	return cfg
}

// NewTracer returns a fresh ring on the runtime's recorder, or the
// no-op tracer when tracing is off.
func (e *Env) NewTracer(label string) (tr txtrace.Tracer, traced bool) {
	if e.Trace == nil {
		return txtrace.Nop, false
	}
	return e.Trace.NewRing(label), true
}

// MVDepth reports the retained version depth (0 when multi-versioning
// is off).
func (e *Env) MVDepth() int {
	if e.MV == nil {
		return 0
	}
	return e.MV.K()
}

// CMName reports the contention-management policy in use.
func (e *Env) CMName() string { return e.CM.Name() }

// ModeName reports the execution rung.
func (e *Env) ModeName() string {
	if e.Serial {
		return mode.Serial.String()
	}
	return mode.Speculative.String()
}

// CommitTS exposes the current global commit timestamp (tests, stats).
func (e *Env) CommitTS() uint64 { return e.Clk.Now() }

// Direct returns a non-transactional tm.Tx for single-threaded setup,
// before any transaction runs.
func (e *Env) Direct() mem.Direct { return mem.Direct{Mem: e.Store, Al: e.Alloc} }

// Allocator exposes the allocator for non-transactional setup code.
func (e *Env) Allocator() *mem.Allocator { return e.Alloc }
