package txrt

import "tlstm/internal/txstats"

// Counters is what all four runtimes count the same way. The flat
// runtimes' Stats and core.Stats both embed it, so a counter added here
// is folded, differenced and reported everywhere by the one Add/Minus
// below (stats_test.go fails when a field is left out of either).
type Counters struct {
	// Work is in abstract work units (one unit ≈ one TM operation or one
	// validation step, aborted attempts included); the harness feeds it
	// into its virtual-time model.
	Work uint64
	// SnapshotExtensions counts successful snapshot extensions: a read
	// ran past the snapshot and the read log revalidated forward instead
	// of aborting. Always 0 for TL2, which aborts instead.
	SnapshotExtensions uint64
	// ClockCASRetries counts failed CASes inside commit-clock operations
	// (clock.Probe), the direct measure of clock contention.
	ClockCASRetries uint64
	// CMAbortsSelf counts lost conflicts (one AbortSelf decision each);
	// CMAbortsOwner counts AbortOwner decisions, one per round spent
	// waiting for a signalled owner to concede; BackoffSpins counts the
	// scheduler yields the policy charged between retries (cm.Probe).
	CMAbortsSelf  uint64
	CMAbortsOwner uint64
	BackoffSpins  uint64
	// EntryReclaims counts write-lock entries served from a descriptor's
	// pool instead of the heap; HorizonStalls counts requests TLSTM's
	// reclamation horizon forced to allocate fresh. TL2 and the
	// write-through STM pool no lock-table entries: both stay 0 there.
	EntryReclaims uint64
	HorizonStalls uint64
	// MVReads counts reads served on the multi-version wait-free path;
	// MVMisses counts declared read-only transactions that fell off it
	// (ring overrun or an undeclared write) and re-ran validated.
	MVReads  uint64
	MVMisses uint64
	// ReadSetSizes and WriteSetSizes histogram the set sizes at commit
	// (per transaction; per task for TLSTM). Multi-version reads are
	// unlogged, so they land in bucket 0.
	ReadSetSizes  txstats.Hist
	WriteSetSizes txstats.Hist
	// RestartLatency histograms attempt-start → abort deltas in
	// nanoseconds, one observation per aborted attempt; CommitLatency the
	// attempt-start → commit delta of each final attempt; Attempts the
	// attempts per committed transaction (1 = committed first try).
	RestartLatency txstats.Hist
	CommitLatency  txstats.Hist
	Attempts       txstats.Hist
	// ConflictSketch counts aborts and CM defeats per lock-table shard —
	// the signal the affinity placement consumes. CrossShardConflicts
	// counts the subset outside the thread's home shard at the time;
	// Remaps counts home-shard rebinds.
	ConflictSketch      txstats.Sketch
	CrossShardConflicts uint64
	Remaps              uint64
	// ModeFallbacks counts speculative→serialized ladder transitions
	// (mid-transaction escalations included), ModeRecoveries the returns
	// to speculation; RetryWakes counts Retry parks woken by a
	// conflicting commit's doorbell.
	ModeFallbacks  uint64
	ModeRecoveries uint64
	RetryWakes     uint64
}

// Add folds o into c.
func (c *Counters) Add(o Counters) {
	c.Work += o.Work
	c.SnapshotExtensions += o.SnapshotExtensions
	c.ClockCASRetries += o.ClockCASRetries
	c.CMAbortsSelf += o.CMAbortsSelf
	c.CMAbortsOwner += o.CMAbortsOwner
	c.BackoffSpins += o.BackoffSpins
	c.EntryReclaims += o.EntryReclaims
	c.HorizonStalls += o.HorizonStalls
	c.MVReads += o.MVReads
	c.MVMisses += o.MVMisses
	c.ReadSetSizes.Merge(o.ReadSetSizes)
	c.WriteSetSizes.Merge(o.WriteSetSizes)
	c.RestartLatency.Merge(o.RestartLatency)
	c.CommitLatency.Merge(o.CommitLatency)
	c.Attempts.Merge(o.Attempts)
	c.ConflictSketch.Merge(o.ConflictSketch)
	c.CrossShardConflicts += o.CrossShardConflicts
	c.Remaps += o.Remaps
	c.ModeFallbacks += o.ModeFallbacks
	c.ModeRecoveries += o.ModeRecoveries
	c.RetryWakes += o.RetryWakes
}

// Minus returns the fieldwise difference c−o, meaningful when o is an
// earlier snapshot of c (every counter is monotonic).
func (c Counters) Minus(o Counters) Counters {
	return Counters{
		Work:                c.Work - o.Work,
		SnapshotExtensions:  c.SnapshotExtensions - o.SnapshotExtensions,
		ClockCASRetries:     c.ClockCASRetries - o.ClockCASRetries,
		CMAbortsSelf:        c.CMAbortsSelf - o.CMAbortsSelf,
		CMAbortsOwner:       c.CMAbortsOwner - o.CMAbortsOwner,
		BackoffSpins:        c.BackoffSpins - o.BackoffSpins,
		EntryReclaims:       c.EntryReclaims - o.EntryReclaims,
		HorizonStalls:       c.HorizonStalls - o.HorizonStalls,
		MVReads:             c.MVReads - o.MVReads,
		MVMisses:            c.MVMisses - o.MVMisses,
		ReadSetSizes:        c.ReadSetSizes.Minus(o.ReadSetSizes),
		WriteSetSizes:       c.WriteSetSizes.Minus(o.WriteSetSizes),
		RestartLatency:      c.RestartLatency.Minus(o.RestartLatency),
		CommitLatency:       c.CommitLatency.Minus(o.CommitLatency),
		Attempts:            c.Attempts.Minus(o.Attempts),
		ConflictSketch:      c.ConflictSketch.Minus(o.ConflictSketch),
		CrossShardConflicts: c.CrossShardConflicts - o.CrossShardConflicts,
		Remaps:              c.Remaps - o.Remaps,
		ModeFallbacks:       c.ModeFallbacks - o.ModeFallbacks,
		ModeRecoveries:      c.ModeRecoveries - o.ModeRecoveries,
		RetryWakes:          c.RetryWakes - o.RetryWakes,
	}
}

// Stats is a flat runtime's statistics shard: transaction outcomes plus
// the shared Counters. stm, tl2 and wtstm re-export it by alias.
//
// TL2 and the write-through STM pool their descriptors per runtime, not
// per caller, so there the caller-owned shard IS the logical thread: it
// carries the thread's placement identity and mode controller (thr),
// bound on the shard's first transaction and touched only by the owning
// goroutine. A shard must therefore stay with one runtime.
type Stats struct {
	Commits uint64
	Aborts  uint64
	Counters

	thr Thread
}

// Add folds o's counters into s (o's thread identity is not carried).
func (s *Stats) Add(o Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.Counters.Add(o.Counters)
}

// Minus returns the counter difference s−o; see Counters.Minus (which
// this shadows, so a shard is never differenced without its outcomes).
func (s Stats) Minus(o Stats) Stats {
	return Stats{
		Commits:  s.Commits - o.Commits,
		Aborts:   s.Aborts - o.Aborts,
		Counters: s.Counters.Minus(o.Counters),
	}
}
