package txrt

import "tlstm/internal/txstats"

// Tally is what a transaction counts on its descriptor: Desc embeds it
// per transaction, fold adds it into the Counters shard at commit
// (Desc.fold), and Reset zeroes it. A counter a runtime charges per
// transaction is a field here, its charge site and its fold line.
type Tally struct {
	// Work is in abstract work units (one unit ≈ one TM operation or one
	// validation step, aborted attempts included); the harness feeds it
	// into its virtual-time model.
	Work uint64
	// SnapshotExtensions counts successful snapshot extensions: a read
	// ran past the snapshot and the read log revalidated forward instead
	// of aborting. Always 0 for TL2, which aborts instead.
	SnapshotExtensions uint64
	// ValidatedEntries counts the read entries that validation passes
	// checked: commit-time read validation, snapshot extension and
	// TLSTM's validate-task, each pass adding the entries it looked at.
	// A writer commit whose stamp shows that nothing committed since its
	// snapshot adds none.
	ValidatedEntries uint64
	// EntryReclaims counts write-lock entries served from a descriptor's
	// pool instead of the heap; HorizonStalls counts requests TLSTM's
	// reclamation horizon forced to allocate fresh. TL2 and the
	// write-through STM pool no lock-table entries: both stay 0 there.
	EntryReclaims uint64
	HorizonStalls uint64
	// MVReads counts reads served on the multi-version wait-free path;
	// MVMisses counts declared read-only transactions that fell off it
	// (ring overrun, an undeclared write, or a Retry, whose unlogged
	// reads leave nothing to park on) and re-ran validated — one per
	// exit, the same in all four runtimes (Desc.ExitMV; core's
	// mvFallback).
	MVReads  uint64
	MVMisses uint64
	// RetryWakes counts Retry parks woken by a conflicting commit's
	// doorbell.
	RetryWakes uint64
}

// Counters is what all four runtimes count the same way. The flat
// runtimes' Stats and core.Stats both embed it, so a counter added here
// is folded, differenced and reported everywhere (txstats walks the
// struct; stats_test.go checks that every field is reached).
type Counters struct {
	Tally
	// ClockCASRetries is always 0: the GV4 clock ticks with one
	// fetch-and-add and never retries. The field stays only because the
	// bench schema reads it (clock.cas_retries_per_ktx); both go with
	// that schema's next bump (ROADMAP item 1(c)).
	ClockCASRetries uint64
	// CMAbortsSelf counts lost conflicts (one AbortSelf decision each);
	// CMAbortsOwner counts AbortOwner decisions, one per round spent
	// waiting for a signalled owner to concede; BackoffSpins counts the
	// scheduler yields the policy charged between retries (cm.Probe).
	CMAbortsSelf  uint64
	CMAbortsOwner uint64
	BackoffSpins  uint64
	// ReadSetSizes and WriteSetSizes histogram the set sizes at commit
	// (per transaction; per task for TLSTM). Multi-version reads are
	// unlogged, so they land in bucket 0.
	ReadSetSizes  txstats.Hist
	WriteSetSizes txstats.Hist
	// RestartLatency histograms attempt-start → abort deltas in
	// nanoseconds; CommitLatency the attempt-start → commit delta of a
	// final attempt. Both are sampled: each descriptor times one attempt
	// in 64 (its first included), so their counts are counts of sampled
	// attempts. Attempts, exact, histograms the attempts per committed
	// transaction (1 = committed first try).
	RestartLatency txstats.Hist
	CommitLatency  txstats.Hist
	Attempts       txstats.Hist
}

// Add folds o into c.
func (c *Counters) Add(o Counters) { txstats.Add(c, o) }

// Minus returns the fieldwise difference c−o, meaningful when o is an
// earlier snapshot of c (every counter is monotonic).
func (c Counters) Minus(o Counters) Counters { return txstats.Sub(c, o) }

// Stats is a flat runtime's statistics shard: transaction outcomes plus
// the shared Counters. stm, tl2 and wtstm re-export it by alias.
type Stats struct {
	Commits uint64
	Aborts  uint64
	Counters
}

// Add folds o's counters into s.
func (s *Stats) Add(o Stats) { txstats.Add(s, o) }

// Minus returns the counter difference s−o; see Counters.Minus (which
// this shadows, so a shard is never differenced without its outcomes).
func (s Stats) Minus(o Stats) Stats { return txstats.Sub(s, o) }
