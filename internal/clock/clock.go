// Package clock is the global commit timestamp shared by every
// transactional runtime in this repository.
//
// SwissTM (paper §3.1), TLSTM (§3.2), TL2 and the write-through STM all
// serialize commits through a single monotonically increasing counter:
// a transaction samples it when it begins (its snapshot / read version)
// and a writer stamps the published locations with a commit timestamp.
// The counter is TL2's GV4: a padded atomic word ticked with one
// fetch-and-add per writer commit.
//
// # The contract
//
// The runtimes rely on two properties of the clock:
//
//	every Tick completes strictly above every Now sample
//	that completed before the Tick was taken,           (T1)
//
//	every Tick value is handed to exactly one caller, and
//	after Tick returns t, Now() ≥ t.                    (exclusivity)
//
// GV4 satisfies both: Tick = Add(1) is above everything any Load ever
// returned, each Add result is unique, and the Add itself publishes t.
//
// A runtime that accepts a read of version v without validation when
// v ≤ validTS (its Now sample) is safe by (T1), provided it takes the
// Tick only AFTER acquiring the commit locks of everything it is about
// to publish (all four runtimes do: the lock acquisition makes
// concurrent readers of those locations spin or abort rather than
// record a version). Exclusivity is what lets TL2-style commits skip
// read-set validation when their stamp is exactly readVersion+1 ("the
// clock moved once" means "only we committed"), and what makes each
// committed writer serialize at its own stamp in the offline opacity
// checker (internal/txcheck).
//
// Equality-based read validation (SwissTM's cur == recorded) is sound
// for the same reason (T1) holds: recording (pair, v) requires
// validTS ≥ v, hence the clock ≥ v at record time, hence any later tick
// that could re-stamp the pair is > v; and a writer that took stamp v
// before the record holds the pair's commit lock from before its Tick
// until publication, so the record cannot have been made in between.
//
// Source stays an interface so a runtime's clock can be injected
// (txrt.WithClock, core.Config.Clock): a decorator that counts the
// calls a runtime makes wraps the GV4 it is handed.
package clock

import "sync/atomic"

// Probe is the per-context argument of Tick and Observe. GV4 keeps no
// per-context state, so it carries nothing; callers may pass nil.
type Probe struct{}

// Source is the commit clock. All methods are safe for concurrent use.
type Source interface {
	// Now returns the current timestamp: a value no greater than any
	// Tick taken after Now completes (contract T1). Transactions sample
	// it at begin and during snapshot extension.
	Now() uint64

	// Tick returns the commit timestamp for one writer commit, unique
	// to the caller and published by the time Tick returns. The caller
	// must already hold the commit locks of every location it will
	// stamp (see the package docs).
	Tick(p *Probe) uint64

	// Observe re-samples the clock during snapshot extension, given the
	// witnessed version v that sent the reader there. It returns a
	// reading ≥ v for any v a Tick has returned.
	Observe(v uint64, p *Probe) uint64
}

// Kind names a clock; GV4 is the only one.
type Kind int

// KindGV4 is the fetch-and-add clock (TL2's GV4).
const KindGV4 Kind = 0

// New returns a fresh clock of the kind.
func New(Kind) Source { return &GV4{} }

// pad keeps a counter on its own cache line: false sharing with
// adjacent fields would charge the clock's contention to innocent
// bystanders.
type pad [56]byte

// GV4 is the classic fetch-and-add commit clock: dense, unique,
// immediately published timestamps; one atomic Add per writer commit.
// The zero value is a valid clock reading 0; the first Tick returns 1.
// A GV4 must not be copied after first use.
type GV4 struct {
	_  pad
	ts atomic.Uint64
	_  pad
}

// Now implements Source.
func (c *GV4) Now() uint64 { return c.ts.Load() }

// Tick implements Source: one fetch-and-add.
func (c *GV4) Tick(*Probe) uint64 { return c.ts.Add(1) }

// Observe implements Source. GV4 stamps never lead the clock, so this
// is a plain re-sample.
func (c *GV4) Observe(uint64, *Probe) uint64 { return c.ts.Load() }

var _ Source = (*GV4)(nil)
