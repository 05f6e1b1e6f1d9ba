package tlstm_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tlstm/internal/cm"
	"tlstm/internal/core"
	"tlstm/internal/mode"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/txcheck"
	"tlstm/internal/txtrace"
	"tlstm/internal/wtstm"
)

// Differential testing: the same deterministic workload executed on the
// SwissTM baseline, the TL2 baseline and TLSTM (at several speculative
// depths) must leave the word store in exactly the same state. A
// divergence pinpoints a semantics bug in one runtime.

// diffOp is one step of a deterministic single-thread program.
type diffOp struct {
	kind int // 0: w[dst] = w[src]+k; 1: w[dst] = w[src]*3+k; 2: swap
	src  uint8
	dst  uint8
	k    uint8
}

const diffWords = 48

func applyOp(tx tm.Tx, base tm.Addr, op diffOp) {
	src := base + tm.Addr(op.src%diffWords)
	dst := base + tm.Addr(op.dst%diffWords)
	switch op.kind % 3 {
	case 0:
		tx.Store(dst, tx.Load(src)+uint64(op.k))
	case 1:
		tx.Store(dst, tx.Load(src)*3+uint64(op.k))
	default:
		a, b := tx.Load(src), tx.Load(dst)
		tx.Store(src, b)
		tx.Store(dst, a)
	}
}

// genProgram builds a random program of transactions (each a short op
// list) from a seed.
func genProgram(seed int64, txs int) [][]diffOp {
	rng := rand.New(rand.NewSource(seed))
	prog := make([][]diffOp, txs)
	for i := range prog {
		n := 1 + rng.Intn(6)
		ops := make([]diffOp, n)
		for j := range ops {
			ops[j] = diffOp{
				kind: rng.Intn(3),
				src:  uint8(rng.Intn(diffWords)),
				dst:  uint8(rng.Intn(diffWords)),
				k:    uint8(1 + rng.Intn(7)),
			}
		}
		prog[i] = ops
	}
	return prog
}

func snapshot(d tm.Tx, base tm.Addr) [diffWords]uint64 {
	var m [diffWords]uint64
	for i := range m {
		m[i] = d.Load(base + tm.Addr(i))
	}
	return m
}

func runOnSTM(prog [][]diffOp, pol cm.Kind) [diffWords]uint64 {
	rt := stm.New(stm.WithCM(cm.New(pol)))
	base := rt.Direct().Alloc(diffWords)
	for _, ops := range prog {
		ops := ops
		rt.Atomic(nil, func(tx *stm.Tx) {
			for _, op := range ops {
				applyOp(tx, base, op)
			}
		})
	}
	return snapshot(rt.Direct(), base)
}

func runOnTL2(prog [][]diffOp, pol cm.Kind) [diffWords]uint64 {
	rt := tl2.New(16, tl2.WithCM(cm.New(pol)))
	base := rt.Direct().Alloc(diffWords)
	for _, ops := range prog {
		ops := ops
		rt.Atomic(nil, func(tx *tl2.Tx) {
			for _, op := range ops {
				applyOp(tx, base, op)
			}
		})
	}
	return snapshot(rt.Direct(), base)
}

func runOnWriteThrough(prog [][]diffOp, pol cm.Kind) [diffWords]uint64 {
	rt := wtstm.New(16, wtstm.WithCM(cm.New(pol)))
	base := rt.Direct().Alloc(diffWords)
	for _, ops := range prog {
		ops := ops
		rt.Atomic(nil, func(tx *wtstm.Tx) {
			for _, op := range ops {
				applyOp(tx, base, op)
			}
		})
	}
	return snapshot(rt.Direct(), base)
}

func runOnTLSTM(prog [][]diffOp, depth int, split bool, pol cm.Kind) [diffWords]uint64 {
	return runOnTLSTMCfg(prog, split, core.Config{SpecDepth: depth, LockTableBits: 14, CM: cm.New(pol)})
}

func runOnTLSTMCfg(prog [][]diffOp, split bool, cfg core.Config) [diffWords]uint64 {
	return runOnTLSTMVia(prog, split, false, cfg)
}

// runOnTLSTMVia runs prog on one TLSTM thread, each transaction handed
// over by submitTLSTM. Through Atomic a split program ships its first
// transaction (a thread starts in the ship state) and fuses the rest,
// whose bodies are far too short to pay for a hand-off: the leg panics
// if no transaction ran fused.
func runOnTLSTMVia(prog [][]diffOp, split, viaAtomic bool, cfg core.Config) [diffWords]uint64 {
	rt := core.New(cfg)
	defer rt.Close() // drain the pooled workers; difftests build many runtimes
	base := rt.Direct().Alloc(diffWords)
	thr := rt.NewThread()
	for _, ops := range prog {
		submitTLSTM(thr, viaAtomic, false, tlstmTasks(ops, base, split && cfg.SpecDepth > 1)...)
	}
	thr.Sync()
	if fusable := viaAtomic && split && cfg.SpecDepth > 1 && len(prog) > 1; fusable && thr.Stats().TxFused == 0 {
		panic("an Atomic leg of a split program fused no transaction")
	}
	return snapshot(rt.Direct(), base)
}

// tlstmTasks is one transaction as TLSTM tasks: its two halves when
// split (and it has two ops to split), else one body.
func tlstmTasks(ops []diffOp, base tm.Addr, split bool) []core.TaskFunc {
	body := func(ops []diffOp) core.TaskFunc {
		return func(tk *core.Task) {
			for _, op := range ops {
				applyOp(tk, base, op)
			}
		}
	}
	if split && len(ops) > 1 {
		mid := len(ops) / 2
		return []core.TaskFunc{body(ops[:mid]), body(ops[mid:])}
	}
	return []core.TaskFunc{body(ops)}
}

// submitTLSTM hands one transaction (ro: declared read-only) to thr:
// through Submit, every task pipelined onto the workers; or through
// Atomic (viaAtomic), where a one-body or fused transaction runs solo on
// the caller and a shipped one runs its head there.
func submitTLSTM(thr *core.Thread, viaAtomic, ro bool, fns ...core.TaskFunc) {
	var err error
	switch {
	case viaAtomic && ro:
		err = thr.AtomicRO(fns...)
	case viaAtomic:
		err = thr.Atomic(fns...)
	case ro:
		_, err = thr.SubmitRO(fns...)
	default:
		_, err = thr.Submit(fns...)
	}
	if err != nil {
		panic(err)
	}
}

// The multi-version leg interleaves a declared read-only audit scan
// after every write transaction, with the version store enabled at the
// degenerate depth K=1. The runs are sequential, so each scan's sum is
// a deterministic function of the program prefix: every runtime must
// produce the same final state AND the same per-step scan sums as the
// multi-version-free reference — any stale, torn or mis-indexed version
// served by the wait-free path shows up as a sum divergence.

func runOnSTMMV(prog [][]diffOp) ([diffWords]uint64, []uint64) {
	rt := stm.New(stm.WithMultiVersion(1))
	base := rt.Direct().Alloc(diffWords)
	sums := make([]uint64, len(prog))
	for i, ops := range prog {
		ops := ops
		rt.Atomic(nil, func(tx *stm.Tx) {
			for _, op := range ops {
				applyOp(tx, base, op)
			}
		})
		i := i
		rt.AtomicRO(nil, func(tx *stm.Tx) {
			var s uint64
			for j := 0; j < diffWords; j++ {
				s += tx.Load(base + tm.Addr(j))
			}
			sums[i] = s
		})
	}
	return snapshot(rt.Direct(), base), sums
}

func runOnTL2MV(prog [][]diffOp) ([diffWords]uint64, []uint64) {
	rt := tl2.New(16, tl2.WithMultiVersion(1))
	base := rt.Direct().Alloc(diffWords)
	sums := make([]uint64, len(prog))
	for i, ops := range prog {
		ops := ops
		rt.Atomic(nil, func(tx *tl2.Tx) {
			for _, op := range ops {
				applyOp(tx, base, op)
			}
		})
		i := i
		rt.AtomicRO(nil, func(tx *tl2.Tx) {
			var s uint64
			for j := 0; j < diffWords; j++ {
				s += tx.Load(base + tm.Addr(j))
			}
			sums[i] = s
		})
	}
	return snapshot(rt.Direct(), base), sums
}

func runOnWriteThroughMV(prog [][]diffOp) ([diffWords]uint64, []uint64) {
	rt := wtstm.New(16, wtstm.WithMultiVersion(1))
	base := rt.Direct().Alloc(diffWords)
	sums := make([]uint64, len(prog))
	for i, ops := range prog {
		ops := ops
		rt.Atomic(nil, func(tx *wtstm.Tx) {
			for _, op := range ops {
				applyOp(tx, base, op)
			}
		})
		i := i
		rt.AtomicRO(nil, func(tx *wtstm.Tx) {
			var s uint64
			for j := 0; j < diffWords; j++ {
				s += tx.Load(base + tm.Addr(j))
			}
			sums[i] = s
		})
	}
	return snapshot(rt.Direct(), base), sums
}

// runOnTLSTMMV runs the program on a depth-2 TLSTM thread with
// MVDepth 1, a read-only scan after every write transaction. Submitted
// (pipelined), scans overlap in-flight writers, so the wait-free path's
// own-thread hazard check (pending redo chains force a validated
// fallback) is exercised, not just the quiet case; through Atomic they
// run solo, on the kit's multi-version path.
func runOnTLSTMMV(prog [][]diffOp, split, viaAtomic bool) ([diffWords]uint64, []uint64) {
	rt := core.New(core.Config{SpecDepth: 2, LockTableBits: 14, MVDepth: 1})
	defer rt.Close()
	base := rt.Direct().Alloc(diffWords)
	thr := rt.NewThread()
	sums := make([]uint64, len(prog))
	for i, ops := range prog {
		submitTLSTM(thr, viaAtomic, false, tlstmTasks(ops, base, split)...)
		i := i
		submitTLSTM(thr, viaAtomic, true, func(tk *core.Task) {
			var s uint64
			for j := 0; j < diffWords; j++ {
				s += tk.Load(base + tm.Addr(j))
			}
			sums[i] = s
		})
	}
	thr.Sync()
	return snapshot(rt.Direct(), base), sums
}

func TestDifferentialMultiVersion(t *testing.T) {
	const seeds = 6
	for seed := int64(0); seed < seeds; seed++ {
		prog := genProgram(seed+200, 30)
		want := runOnSTM(prog, cm.KindDefault)

		gotSTM, wantSums := runOnSTMMV(prog)
		if gotSTM != want {
			t.Fatalf("seed %d: SwissTM/mv1 diverges from plain SwissTM\n got: %v\nwant: %v", seed, gotSTM, want)
		}
		check := func(name string, got [diffWords]uint64, sums []uint64) {
			if got != want {
				t.Fatalf("seed %d: %s/mv1 diverges\n got: %v\nwant: %v", seed, name, got, want)
			}
			for i := range sums {
				if sums[i] != wantSums[i] {
					t.Fatalf("seed %d: %s/mv1 scan %d saw sum %d, want %d (stale or torn version served)",
						seed, name, i, sums[i], wantSums[i])
				}
			}
		}
		got, sums := runOnTL2MV(prog)
		check("TL2", got, sums)
		got, sums = runOnWriteThroughMV(prog)
		check("write-through", got, sums)
		for _, split := range []bool{false, true} {
			for _, viaAtomic := range []bool{false, true} {
				got, sums = runOnTLSTMMV(prog, split, viaAtomic)
				check(fmt.Sprintf("TLSTM(split=%v, atomic=%v)", split, viaAtomic), got, sums)
			}
		}
	}
}

// TestDifferentialAggressiveReclamation is the entry-reclamation leg:
// the sequential-equivalence workload re-run on TLSTM with reclamation
// forced aggressive — quiescence rings capped at one slot, the horizon
// consulted on every retire, and the reclamation invariant checker
// armed — so write-lock entries are recycled on (almost) every commit
// rather than only under pipelined load. Any recycle that broke
// validate-task's pointer-identity check (the ABA the horizon rules
// out) would surface here as a state divergence from the SwissTM
// reference, and any horizon violation as an audit panic.
func TestDifferentialAggressiveReclamation(t *testing.T) {
	const seeds = 8
	for seed := int64(0); seed < seeds; seed++ {
		prog := genProgram(seed+50, 30)
		want := runOnSTM(prog, cm.KindDefault)
		for _, depth := range []int{2, 4} {
			for _, split := range []bool{false, true} {
				cfg := core.Config{
					SpecDepth: depth, LockTableBits: 14, CM: cm.New(cm.KindDefault),
					ReclaimRing: 1, ReclaimAudit: true,
				}
				if got := runOnTLSTMCfg(prog, split, cfg); got != want {
					t.Fatalf("seed %d: TLSTM depth %d (split=%v, aggressive reclaim) diverges\n got: %v\nwant: %v",
						seed, depth, split, got, want)
				}
			}
		}
	}
}

// TestDifferentialCMPolicies is the contention-management leg: the same
// deterministic programs, executed under every policy on every runtime
// (TLSTM at depth 2 both unsplit and split, so the task-aware decorator
// sees real task structure), must be sequentially equivalent — byte for
// byte the state the default-policy SwissTM/gv4 run produces. The
// default TaskAware policy on core doubles as the bit-for-bit
// regression against the pre-subsystem behavior.
func TestDifferentialCMPolicies(t *testing.T) {
	const seeds = 6
	progs := make([][][]diffOp, seeds)
	wants := make([][diffWords]uint64, seeds)
	for i := range progs {
		progs[i] = genProgram(int64(i+100), 30)
		wants[i] = runOnSTM(progs[i], cm.KindDefault)
	}
	for _, pol := range cm.Kinds() {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				prog, want := progs[seed], wants[seed]
				if got := runOnSTM(prog, pol); got != want {
					t.Fatalf("seed %d: SwissTM/%v diverges\n got: %v\nwant: %v", seed, pol, got, want)
				}
				if got := runOnTL2(prog, pol); got != want {
					t.Fatalf("seed %d: TL2/%v diverges\n got: %v\nwant: %v", seed, pol, got, want)
				}
				if got := runOnWriteThrough(prog, pol); got != want {
					t.Fatalf("seed %d: write-through/%v diverges\n got: %v\nwant: %v", seed, pol, got, want)
				}
				for _, split := range []bool{false, true} {
					if got := runOnTLSTM(prog, 2, split, pol); got != want {
						t.Fatalf("seed %d: TLSTM/%v (split=%v) diverges\n got: %v\nwant: %v", seed, pol, split, got, want)
					}
				}
			}
		})
	}
}

func TestDifferentialRuntimes(t *testing.T) {
	// The reference state is the SwissTM baseline's. The subtest
	// carries the clock's name ("gv4").
	t.Run("gv4", func(t *testing.T) {
		for seed := int64(1); seed <= 12; seed++ {
			prog := genProgram(seed, 30)
			want := runOnSTM(prog, cm.KindDefault)
			if got := runOnTL2(prog, cm.KindDefault); got != want {
				t.Fatalf("seed %d: TL2 diverges from SwissTM\n tl2: %v\n stm: %v", seed, got, want)
			}
			if got := runOnWriteThrough(prog, cm.KindDefault); got != want {
				t.Fatalf("seed %d: write-through diverges from SwissTM\n  wt: %v\n stm: %v", seed, got, want)
			}
			for _, depth := range []int{1, 2, 4} {
				if got := runOnTLSTM(prog, depth, false, cm.KindDefault); got != want {
					t.Fatalf("seed %d: TLSTM depth %d (unsplit) diverges\n got: %v\nwant: %v", seed, depth, got, want)
				}
			}
			for _, depth := range []int{2, 4} {
				if got := runOnTLSTM(prog, depth, true, cm.KindDefault); got != want {
					t.Fatalf("seed %d: TLSTM depth %d (split) diverges\n got: %v\nwant: %v", seed, depth, got, want)
				}
			}
			// Through Atomic: one-task transactions run solo; split
			// ones ship once and then run their two bodies fused.
			for _, split := range []bool{false, true} {
				cfg := core.Config{SpecDepth: 2, LockTableBits: 14}
				if got := runOnTLSTMVia(prog, split, true, cfg); got != want {
					t.Fatalf("seed %d: TLSTM Atomic (split=%v) diverges\n got: %v\nwant: %v", seed, split, got, want)
				}
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Tracing leg
// ---------------------------------------------------------------------------

// TestDifferentialTracing is the observability leg: the same programs,
// re-run with the flight recorder armed on every runtime (TLSTM at
// depth 2, split, so tracing covers real task structure), must produce
// bit-identical final state — tracing is pure observation. Each
// recorder's dump must also round-trip through the binary format with
// its structural invariants (monotonic sequences, known kinds) intact.
func TestDifferentialTracing(t *testing.T) {
	const seeds = 4
	for seed := int64(0); seed < seeds; seed++ {
		prog := genProgram(seed+300, 30)
		want := runOnSTM(prog, cm.KindDefault)

		check := func(name string, got [diffWords]uint64, rec *txtrace.Recorder) {
			t.Helper()
			if got != want {
				t.Fatalf("seed %d: %s traced run diverges\n got: %v\nwant: %v", seed, name, got, want)
			}
			var buf bytes.Buffer
			if err := rec.Dump(&buf); err != nil {
				t.Fatalf("seed %d: %s dump: %v", seed, name, err)
			}
			tr, err := txtrace.ReadTrace(&buf)
			if err != nil {
				t.Fatalf("seed %d: %s trace round-trip: %v", seed, name, err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("seed %d: %s trace invalid: %v", seed, name, err)
			}
			if rec.Events() == 0 {
				t.Fatalf("seed %d: %s recorded no events", seed, name)
			}
			rep, err := txcheck.Check(tr)
			if err != nil {
				t.Fatalf("seed %d: %s opacity check: %v", seed, name, err)
			}
			if !rep.Ok() {
				for _, v := range rep.Violations {
					t.Errorf("seed %d: %s ring %q seq %d: %s: %s",
						seed, name, v.Ring, v.Seq, v.Code, v.Msg)
				}
				t.Fatalf("seed %d: %s opacity violated (%d violations)", seed, name, len(rep.Violations))
			}
			// These runs are short enough to fit entirely in the rings,
			// so the checker must see the whole history, not a suffix.
			if !rep.Complete() {
				t.Fatalf("seed %d: %s verdict partial (dropped=%d) on a drop-free run",
					seed, name, rep.DroppedEvents)
			}
			if rep.TxsChecked == 0 || rep.ReadsChecked == 0 {
				t.Fatalf("seed %d: %s checker saw no work (txs=%d reads=%d)",
					seed, name, rep.TxsChecked, rep.ReadsChecked)
			}
		}

		{
			rec := txtrace.NewRecorder(1 << 10)
			rt := stm.New(stm.WithTrace(rec))
			base := rt.Direct().Alloc(diffWords)
			for _, ops := range prog {
				ops := ops
				rt.Atomic(nil, func(tx *stm.Tx) {
					for _, op := range ops {
						applyOp(tx, base, op)
					}
				})
			}
			check("SwissTM", snapshot(rt.Direct(), base), rec)
		}
		{
			rec := txtrace.NewRecorder(1 << 10)
			rt := tl2.New(16, tl2.WithTrace(rec))
			base := rt.Direct().Alloc(diffWords)
			for _, ops := range prog {
				ops := ops
				rt.Atomic(nil, func(tx *tl2.Tx) {
					for _, op := range ops {
						applyOp(tx, base, op)
					}
				})
			}
			check("TL2", snapshot(rt.Direct(), base), rec)
		}
		{
			rec := txtrace.NewRecorder(1 << 10)
			rt := wtstm.New(16, wtstm.WithTrace(rec))
			base := rt.Direct().Alloc(diffWords)
			for _, ops := range prog {
				ops := ops
				rt.Atomic(nil, func(tx *wtstm.Tx) {
					for _, op := range ops {
						applyOp(tx, base, op)
					}
				})
			}
			check("write-through", snapshot(rt.Direct(), base), rec)
		}
		{
			rec := txtrace.NewRecorder(1 << 10)
			cfg := core.Config{SpecDepth: 2, LockTableBits: 14, Trace: rec}
			got := runOnTLSTMCfg(prog, true, cfg)
			check("TLSTM", got, rec)
		}
		// Through Atomic: solo one-task transactions, and split ones that
		// ship once and then run fused.
		for _, split := range []bool{false, true} {
			rec := txtrace.NewRecorder(1 << 10)
			cfg := core.Config{SpecDepth: 2, LockTableBits: 14, Trace: rec}
			got := runOnTLSTMVia(prog, split, true, cfg)
			check(fmt.Sprintf("TLSTM Atomic (split=%v)", split), got, rec)
		}
	}
}

// ---------------------------------------------------------------------------
// Serialized-rung leg
// ---------------------------------------------------------------------------

// TestDifferentialSerialRung is the serialized-rung leg: the same
// programs with every transaction under the runtime's gate (mode.Serial),
// traced and pushed through the opacity checker on all four runtimes.
// The gate must be pure scheduling: bit-identical final state, zero
// opacity violations, complete verdicts.
func TestDifferentialSerialRung(t *testing.T) {
	serial := mode.Config{Policy: mode.Serial}
	const seeds = 4
	for seed := int64(0); seed < seeds; seed++ {
		prog := genProgram(seed+500, 30)
		want := runOnSTM(prog, cm.KindDefault)

		check := func(name string, got [diffWords]uint64, rec *txtrace.Recorder) {
			t.Helper()
			if got != want {
				t.Fatalf("seed %d: %s serial run diverges\n got: %v\nwant: %v", seed, name, got, want)
			}
			var buf bytes.Buffer
			if err := rec.Dump(&buf); err != nil {
				t.Fatalf("seed %d: %s dump: %v", seed, name, err)
			}
			tr, err := txtrace.ReadTrace(&buf)
			if err != nil {
				t.Fatalf("seed %d: %s trace round-trip: %v", seed, name, err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("seed %d: %s trace invalid: %v", seed, name, err)
			}
			rep, err := txcheck.Check(tr)
			if err != nil {
				t.Fatalf("seed %d: %s opacity check: %v", seed, name, err)
			}
			if !rep.Ok() {
				for _, v := range rep.Violations {
					t.Errorf("seed %d: %s ring %q seq %d: %s: %s",
						seed, name, v.Ring, v.Seq, v.Code, v.Msg)
				}
				t.Fatalf("seed %d: %s opacity violated on the serialized rung (%d violations)",
					seed, name, len(rep.Violations))
			}
			if !rep.Complete() {
				t.Fatalf("seed %d: %s verdict partial (dropped=%d) on a drop-free run",
					seed, name, rep.DroppedEvents)
			}
			if rep.TxsChecked == 0 {
				t.Fatalf("seed %d: %s checker saw no transactions", seed, name)
			}
		}
		serialRung := func(name, got string) {
			t.Helper()
			if got != "serial" {
				t.Fatalf("%s runs the %q rung, want serial", name, got)
			}
		}

		{
			rec := txtrace.NewRecorder(1 << 10)
			rt := stm.New(stm.WithTrace(rec), stm.WithMode(serial))
			serialRung("SwissTM", rt.ModeName())
			base := rt.Direct().Alloc(diffWords)
			for _, ops := range prog {
				ops := ops
				rt.Atomic(nil, func(tx *stm.Tx) {
					for _, op := range ops {
						applyOp(tx, base, op)
					}
				})
			}
			check("SwissTM", snapshot(rt.Direct(), base), rec)
		}
		{
			rec := txtrace.NewRecorder(1 << 10)
			rt := tl2.New(16, tl2.WithTrace(rec), tl2.WithMode(serial))
			serialRung("TL2", rt.ModeName())
			base := rt.Direct().Alloc(diffWords)
			st := &tl2.Stats{}
			for _, ops := range prog {
				ops := ops
				rt.Atomic(st, func(tx *tl2.Tx) {
					for _, op := range ops {
						applyOp(tx, base, op)
					}
				})
			}
			check("TL2", snapshot(rt.Direct(), base), rec)
		}
		{
			rec := txtrace.NewRecorder(1 << 10)
			rt := wtstm.New(16, wtstm.WithTrace(rec), wtstm.WithMode(serial))
			serialRung("write-through", rt.ModeName())
			base := rt.Direct().Alloc(diffWords)
			st := &wtstm.Stats{}
			for _, ops := range prog {
				ops := ops
				rt.Atomic(st, func(tx *wtstm.Tx) {
					for _, op := range ops {
						applyOp(tx, base, op)
					}
				})
			}
			check("write-through", snapshot(rt.Direct(), base), rec)
		}
		for _, split := range []bool{false, true} {
			rec := txtrace.NewRecorder(1 << 10)
			cfg := core.Config{SpecDepth: 2, LockTableBits: 14, Trace: rec, Mode: serial}
			got := runOnTLSTMCfg(prog, split, cfg)
			check(fmt.Sprintf("TLSTM(split=%v)", split), got, rec)
		}
	}
}
