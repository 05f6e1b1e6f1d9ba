// Package txrt is the engine kit the runtimes are built from: what
// SwissTM (stm), TL2 (tl2), the write-through STM (wtstm) and TLSTM
// (core) share outside their algorithms, so that they differ only where
// the algorithms differ and a cross-cutting feature is wired once.
//
//   - Counters / Stats: the statistics every runtime counts the same
//     way, with one Add/Minus (stats.go);
//   - Config / Option / Env: the option set, its defaults, and the
//     runtime-wide state built from it — memory, commit clock,
//     contention manager, version store, placement, mode gate, Retry hub
//     (this file);
//   - Desc / Thread / Algorithm: the flat-transaction driver (driver.go).
//
// What a flat runtime must supply, as concrete methods on its own *Tx
// (which embeds Desc and implements tm.Tx):
//
//	Begin() uint64     per-attempt reset; samples and returns the snapshot
//	Exec()             run the user body, then commit
//	Release()          drop held locks / undo in-place writes (abort, panic)
//	SetSizes()         the committed attempt's read- and write-set sizes
//	Load, Store, Retry the algorithm's access path; it aborts through
//	                   Desc.Abort / Desc.ResolveConflict and charges work
//	                   through Desc.Tick
//
// The driver calls the first four through the Algorithm interface once
// per attempt; nothing on the per-access path crosses an interface.
// Everything else — retry loop, latency observation, mode ladder and
// gate, Retry parking, CM backoff, placement remap, conflict-sketch
// attribution, the stats fold, user-panic cleanup — is the driver's.
package txrt

import (
	"strconv"
	"sync/atomic"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/sched"
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
	// RemapPeriod is how many transactions a thread commits between
	// Rebalance offers to the placement policy: enough for a meaningful
	// sketch window, few enough that a shifted workload re-homes fast.
	RemapPeriod = 64
)

// DefaultLockTableBits sizes the lock table (2^bits) when unset.
const DefaultLockTableBits = 20

// Config is the option set the runtimes share. The flat runtimes fill
// it through Options; core.Config maps onto it.
type Config struct {
	LockTableBits int  // log2 of the lock-table size; <= 0 means the default
	Shards        int  // power-of-two shard count; 0 and 1 mean flat
	Affinity      bool // conflict-sketch affinity placement instead of round-robin
	Padded        bool // one lock pair per cache line (pair-table runtimes)
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

// WithClock selects the commit-clock strategy (internal/clock); the
// default is the GV4 fetch-and-add clock. Non-exclusive strategies
// (deferred, sharded) disable the "wv == rv+1 ⇒ skip validation" commit
// shortcut of tl2 and wtstm, which is only sound on unique timestamps.
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

// WithShards splits the lock table into n contiguous shards (a power of
// two; 0 and 1 both mean flat). Sharding only relabels locks for
// conflict attribution and placement — address→lock resolution is
// identical at every shard count.
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithAffinity replaces the static round-robin thread placement with the
// conflict-sketch affinity policy (sched.Affinity).
func WithAffinity(on bool) Option { return func(c *Config) { c.Affinity = on } }

// WithMode configures the execution-mode ladder (internal/mode): under
// mode.Adaptive a thread falls back from speculation to the runtime's
// serialized gate under sustained conflict and recovers when the storm
// passes. The default keeps the ladder disarmed (always speculative).
func WithMode(cfg mode.Config) Option { return func(c *Config) { c.Mode = cfg } }

// Env is the runtime-wide state every runtime builds from a Config. A
// runtime embeds it by value (it holds a mutex: never copy it) and
// initializes it in place with Init.
type Env struct {
	Store *mem.Store
	Alloc *mem.Allocator

	// Layout is the address→lock→shard geometry; the runtime allocates
	// its own lock storage over it.
	Layout locktable.Layout

	Clk       clock.Source
	Exclusive bool // cached Clk.Exclusive()
	CM        cm.Policy

	// MV, when non-nil, is the multi-version word store declared
	// read-only transactions read from without validating.
	MV *txlog.VersionedStore

	// Trace, when non-nil, is the flight recorder descriptors register
	// their event rings with.
	Trace *txtrace.Recorder

	// ModeCfg/Gate/Hub are the execution-mode ladder: the gate
	// serializes fallback entrants, the hub parks Retry waiters.
	ModeCfg mode.Config
	Gate    mode.Gate
	Hub     *mode.WaitHub

	// Placement maps threads to home lock-table shards; threadIDs hands
	// each Thread its placement identity.
	Placement sched.Placement
	threadIDs atomic.Int32
}

// Init fills cfg's defaults (defaultCM is the runtime's own default
// contention manager), builds the environment, and returns the filled
// Config. ns prefixes the trace metadata the offline opacity checker
// reads: it recomputes lock-table slots and picks its clock model from
// <ns>.{lockbits,clock,exclusive,mvdepth}.
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
	cfg.Mode = cfg.Mode.Fill()

	e.Store = store
	e.Alloc = mem.NewAllocator(e.Store)
	e.Layout = locktable.NewLayout(cfg.LockTableBits, cfg.Shards)
	e.Clk = cfg.Clock
	e.Exclusive = cfg.Clock.Exclusive()
	e.CM = cfg.CM
	if cfg.MVDepth > 0 {
		e.MV = txlog.NewVersionedStore(cfg.MVDepth, txlog.DefaultVersionedStoreBits)
	}
	e.Trace = cfg.Trace
	e.ModeCfg = cfg.Mode
	e.Hub = mode.NewWaitHub()
	if cfg.Affinity {
		e.Placement = sched.NewAffinity(e.Layout.Shards())
	} else {
		e.Placement = sched.NewRoundRobin(e.Layout.Shards())
	}
	if e.Trace != nil {
		e.Trace.SetMeta(ns+".lockbits", strconv.Itoa(cfg.LockTableBits))
		e.Trace.SetMeta(ns+".clock", e.Clk.Name())
		e.Trace.SetMeta(ns+".exclusive", strconv.FormatBool(e.Exclusive))
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

// Shards reports the lock table's shard count (1 when flat).
func (e *Env) Shards() int { return e.Layout.Shards() }

// PlacementName reports the thread-placement policy ("static" or
// "affinity").
func (e *Env) PlacementName() string { return e.Placement.Name() }

// MVDepth reports the retained version depth (0 when multi-versioning
// is off).
func (e *Env) MVDepth() int {
	if e.MV == nil {
		return 0
	}
	return e.MV.K()
}

// ClockName reports the commit-clock strategy in use.
func (e *Env) ClockName() string { return e.Clk.Name() }

// CMName reports the contention-management policy in use.
func (e *Env) CMName() string { return e.CM.Name() }

// ModeName reports the execution-mode policy threads ladder under.
func (e *Env) ModeName() string { return e.ModeCfg.Policy.String() }

// CommitTS exposes the current global commit timestamp (tests, stats).
func (e *Env) CommitTS() uint64 { return e.Clk.Now() }

// Direct returns a non-transactional tm.Tx for single-threaded setup,
// before any transaction runs.
func (e *Env) Direct() mem.Direct { return mem.Direct{Mem: e.Store, Al: e.Alloc} }

// Allocator exposes the allocator for non-transactional setup code.
func (e *Env) Allocator() *mem.Allocator { return e.Alloc }
