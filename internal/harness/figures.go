package harness

import (
	"fmt"

	"tlstm/internal/cm"
	"tlstm/internal/core"
	"tlstm/internal/mode"
	"tlstm/internal/rbtree"
	"tlstm/internal/sb7"
	"tlstm/internal/stm"
	"tlstm/internal/tm"
	"tlstm/internal/txrt"
	"tlstm/internal/txtrace"
	"tlstm/internal/vacation"
)

// Scale is the run configuration shared by every figure: it trades run
// time for measurement stability (the number of transactions per thread
// in every figure is multiplied by the Tx fields) and selects the
// runtime settings every figure's runtimes are built with.
type Scale struct {
	// Fig1aTx is transactions per point for the red-black-tree figure.
	Fig1aTx int
	// Fig1bTx is transactions per client for Vacation.
	Fig1bTx int
	// SB7Tx is traversal transactions per thread for Figures 2a/2b.
	SB7Tx int
	Settings
}

// DefaultScale is used by the CLI and benches.
func DefaultScale() Scale { return Scale{Fig1aTx: 300, Fig1bTx: 60, SB7Tx: 24} }

// QuickScale keeps unit-test runs fast.
func QuickScale() Scale { return Scale{Fig1aTx: 40, Fig1bTx: 8, SB7Tx: 4} }

// Settings selects the runtime configuration of a figure or soak run.
// It holds kinds, not instances: Config builds a fresh contention
// manager for every runtime, because policies hold per-runtime state
// and must not be shared (cm.New). The zero value is each runtime's
// default configuration.
type Settings struct {
	// CM is the contention-management policy; the zero value keeps each
	// runtime's own default (greedy for SwissTM, task-aware for TLSTM).
	CM cm.Kind
	// Mode is the execution-mode policy; the zero value is
	// always-speculative.
	Mode mode.Policy
	// MV is the retained version depth; 0 disables multi-versioning.
	// Figure workloads only benefit where they declare transactions
	// read-only, but building the stores is harmless everywhere.
	MV int
	// Trace, when non-nil, arms the flight recorder in every runtime
	// built from these settings; rings are labeled per runtime thread.
	Trace *txtrace.Recorder
}

// Validate rejects settings no runtime can be built with.
func (s Settings) Validate() error {
	switch {
	case s.MV < 0:
		return fmt.Errorf("retained version depth %d cannot be negative", s.MV)
	}
	return nil
}

// Config returns a fresh runtime configuration for one runtime.
func (s Settings) Config() txrt.Config {
	return txrt.Config{
		CM: cm.New(s.CM), Mode: mode.Config{Policy: s.Mode}, MVDepth: s.MV, Trace: s.Trace,
	}
}

// withConfig is the flat runtimes' option that installs all of c.
func withConfig(c txrt.Config) txrt.Option { return func(o *txrt.Config) { *o = c } }

// CoreConfig maps a runtime configuration onto TLSTM's, with the given
// SpecDepth; the TLSTM-only fields are left at their defaults.
func CoreConfig(c txrt.Config, depth int) core.Config {
	return core.Config{
		SpecDepth: depth, LockTableBits: c.LockTableBits,
		Clock: c.Clock, CM: c.CM, MVDepth: c.MVDepth, Trace: c.Trace, Mode: c.Mode,
	}
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// chunk splits n operations into k nearly equal consecutive ranges.
func chunk(n, k int) [][2]int {
	if k > n {
		k = n
	}
	var out [][2]int
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 1a: red-black tree speedup, TLSTM with 2 and 4 tasks vs SwissTM,
// one user-thread, transactions of N read-only lookups, N ∈ {2..64}.
// ---------------------------------------------------------------------------

// Fig1aOpCounts is the paper's x-axis.
var Fig1aOpCounts = []int{2, 4, 8, 16, 32, 64}

const fig1aTreeSize = 1 << 14

// rbWorkload builds the lookup workload split into `tasks` chunks.
func rbWorkload(tr rbtree.Tree, name string, opsPerTx, tasks, txs int) Workload {
	return Workload{
		Name:        name,
		Threads:     1,
		TxPerThread: txs,
		OpsPerTx:    opsPerTx,
		Make: func(thread, idx int) TxSeq {
			var seq TxSeq
			for _, c := range chunk(opsPerTx, tasks) {
				lo, hi := c[0], c[1]
				seq = append(seq, func(tx tm.Tx) {
					for j := lo; j < hi; j++ {
						k := int64(mix64(uint64(idx*opsPerTx+j)) % fig1aTreeSize)
						tr.Lookup(tx, k)
					}
				})
			}
			return seq
		},
	}
}

func fig1aTree(d tm.Tx) rbtree.Tree {
	tr := rbtree.New(d)
	for k := int64(0); k < fig1aTreeSize; k++ {
		tr.Insert(d, k, uint64(k))
	}
	return tr
}

// Fig1a reproduces Figure 1a: speedup of TLSTM-2 and TLSTM-4 over the
// SwissTM baseline on the red-black-tree microbenchmark.
func Fig1a(sc Scale) Figure {
	fig := Figure{
		Title:  "Figure 1a: RB-tree speedup vs SwissTM (1 thread, read-only transactions)",
		XLabel: "ops/tx",
		YLabel: "speedup",
		Series: []Series{{Name: "TLSTM-2"}, {Name: "TLSTM-4"}},
	}
	for _, n := range Fig1aOpCounts {
		base := stm.New(withConfig(sc.Config()))
		baseTree := fig1aTree(base.Direct())
		rBase := RunSTM(base, rbWorkload(baseTree, "SwissTM", n, 1, sc.Fig1aTx))

		for si, tasks := range []int{2, 4} {
			rt := core.New(CoreConfig(sc.Config(), tasks))
			tr := fig1aTree(rt.Direct())
			r := RunTLSTM(rt, rbWorkload(tr, fmt.Sprintf("TLSTM-%d", tasks), n, tasks, sc.Fig1aTx))
			rt.Close() // drain this point's worker pools
			fig.Series[si].X = append(fig.Series[si].X, float64(n))
			fig.Series[si].Y = append(fig.Series[si].Y, r.Throughput()/rBase.Throughput())
		}
	}
	return fig
}

// ---------------------------------------------------------------------------
// Figure 1b: modified STAMP Vacation, throughput vs number of clients
// (user-threads), SwissTM vs TLSTM with 1 and 2 tasks, low and high
// contention.
// ---------------------------------------------------------------------------

// Fig1bClients is the paper's x-axis.
var Fig1bClients = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

const fig1bOpsPerTx = 8 // the paper's modification: 8 operations per transaction

func vacationWorkload(m *vacation.Manager, p vacation.Params, name string, clients, tasks, txs int) Workload {
	return Workload{
		Name:        name,
		Threads:     clients,
		TxPerThread: txs,
		OpsPerTx:    fig1bOpsPerTx,
		Make: func(thread, idx int) TxSeq {
			r := vacation.NewRng(mix64(uint64(thread)<<32 | uint64(idx)))
			ops := make([]vacation.Op, fig1bOpsPerTx)
			for i := range ops {
				ops[i] = p.Generate(r)
			}
			var seq TxSeq
			for _, c := range chunk(fig1bOpsPerTx, tasks) {
				lo, hi := c[0], c[1]
				seq = append(seq, func(tx tm.Tx) {
					for _, op := range ops[lo:hi] {
						m.Execute(tx, op)
					}
				})
			}
			return seq
		},
	}
}

// vacationParams scales the STAMP relation size down for simulator runs.
func vacationParams(high bool) vacation.Params {
	var p vacation.Params
	if high {
		p = vacation.HighContention()
	} else {
		p = vacation.LowContention()
	}
	p.Relations = 1 << 12
	return p
}

// Fig1b reproduces Figure 1b: Vacation throughput with increasing client
// counts for SwissTM, TLSTM-1 and TLSTM-2 under low and high contention.
func Fig1b(sc Scale) Figure {
	fig := Figure{
		Title:  "Figure 1b: Vacation throughput (8 ops/tx) vs number of clients",
		XLabel: "clients",
		YLabel: "ops per 1k work units",
	}
	for _, mode := range []struct {
		high bool
		tag  string
	}{{false, "low"}, {true, "high"}} {
		p := vacationParams(mode.high)
		var sw, t1, t2 Series
		sw.Name = "SwissTM-" + mode.tag
		t1.Name = "TLSTM-1-" + mode.tag
		t2.Name = "TLSTM-2-" + mode.tag
		for _, clients := range Fig1bClients {
			base := stm.New(withConfig(sc.Config()))
			mBase := vacation.NewManager(base.Direct(), 1024)
			vacation.Populate(base.Direct(), mBase, p)
			rBase := RunSTM(base, vacationWorkload(mBase, p, sw.Name, clients, 1, sc.Fig1bTx))
			sw.X = append(sw.X, float64(clients))
			sw.Y = append(sw.Y, rBase.Throughput())

			for tasks, series := range map[int]*Series{1: &t1, 2: &t2} {
				rt := core.New(CoreConfig(sc.Config(), tasks))
				m := vacation.NewManager(rt.Direct(), 1024)
				vacation.Populate(rt.Direct(), m, p)
				r := RunTLSTM(rt, vacationWorkload(m, p, series.Name, clients, tasks, sc.Fig1bTx))
				rt.Close()
				series.X = append(series.X, float64(clients))
				series.Y = append(series.Y, r.Throughput())
			}
		}
		fig.Series = append(fig.Series, sw, t1, t2)
	}
	return fig
}

// ---------------------------------------------------------------------------
// Figures 2a and 2b: STMBench7 long traversals.
// ---------------------------------------------------------------------------

// sb7Workload runs long-traversal transactions: a fraction pctRead of
// them are read-only. tasks must be 1, 3 (top branches) or 9 (second
// level).
func sb7Workload(b *sb7.Bench, name string, threads, tasks, txs, pctRead int) Workload {
	return Workload{
		Name:        name,
		Threads:     threads,
		TxPerThread: txs,
		OpsPerTx:    1,
		Make: func(thread, idx int) TxSeq {
			seed := mix64(uint64(thread)<<32 | uint64(idx))
			readOnly := int(seed%100) < pctRead
			roots, level := b.SplitRoots(tasks)
			var seq TxSeq
			for _, root := range roots {
				root := root
				seq = append(seq, func(tx tm.Tx) {
					if readOnly {
						b.TraverseRead(tx, root, level)
					} else {
						b.TraverseWrite(tx, root, level, seed)
					}
				})
			}
			return seq
		},
	}
}

// Fig2aReadPcts is the x-axis of Figure 2a.
var Fig2aReadPcts = []int{0, 20, 40, 60, 80, 100}

// Fig2a reproduces Figure 2a: SB7 long-traversal throughput against the
// fraction of read-only transactions, for SwissTM with 1 and 3 threads
// and TLSTM with 1 thread × 3 tasks.
func Fig2a(sc Scale) Figure {
	fig := Figure{
		Title:  "Figure 2a: STMBench7 long traversals vs % read-only transactions",
		XLabel: "%read-only",
		YLabel: "traversals per 1k work units",
		Series: []Series{{Name: "SwissTM-1"}, {Name: "TLSTM-1-3"}, {Name: "SwissTM-3"}},
	}
	for _, pct := range Fig2aReadPcts {
		addPoint := func(si int, y float64) {
			fig.Series[si].X = append(fig.Series[si].X, float64(pct))
			fig.Series[si].Y = append(fig.Series[si].Y, y)
		}

		base1 := stm.New(withConfig(sc.Config()))
		b1, err := sb7.Build(base1.Direct(), sb7.Default())
		must(err)
		addPoint(0, RunSTM(base1, sb7Workload(b1, "SwissTM-1", 1, 1, sc.SB7Tx, pct)).Throughput())

		rt := core.New(CoreConfig(sc.Config(), 3))
		bt, err := sb7.Build(rt.Direct(), sb7.Default())
		must(err)
		addPoint(1, RunTLSTM(rt, sb7Workload(bt, "TLSTM-1-3", 1, 3, sc.SB7Tx, pct)).Throughput())
		rt.Close()

		base3 := stm.New(withConfig(sc.Config()))
		b3, err := sb7.Build(base3.Direct(), sb7.Default())
		must(err)
		addPoint(2, RunSTM(base3, sb7Workload(b3, "SwissTM-3", 3, 1, sc.SB7Tx, pct)).Throughput())
	}
	return fig
}

// Fig2bWorkloads is the x-axis of Figure 2b: STMBench7's standard
// workload mixes (fraction of read-only operations).
var Fig2bWorkloads = []struct {
	Name    string
	PctRead int
}{
	{"write", 10},
	{"read-write", 60},
	{"read", 90},
}

// Fig2b reproduces Figure 2b: SB7 long-traversal throughput for SwissTM
// with 1–3 threads and TLSTM with 1–3 threads × {3,9} tasks, across the
// three standard workloads. X encodes the workload index.
func Fig2b(sc Scale) Figure {
	fig := Figure{
		Title:  "Figure 2b: STMBench7 long traversals, workloads write(10%ro)/read-write(60%ro)/read(90%ro)",
		XLabel: "workload#",
		YLabel: "traversals per 1k work units",
	}
	type cfg struct {
		name    string
		threads int
		tasks   int // 0 = SwissTM baseline
	}
	var cfgs []cfg
	for th := 1; th <= 3; th++ {
		cfgs = append(cfgs, cfg{fmt.Sprintf("SwissTM-%d", th), th, 0})
		cfgs = append(cfgs, cfg{fmt.Sprintf("TLSTM-%d-3", th), th, 3})
		cfgs = append(cfgs, cfg{fmt.Sprintf("TLSTM-%d-9", th), th, 9})
	}
	for _, c := range cfgs {
		s := Series{Name: c.name}
		for wi, wl := range Fig2bWorkloads {
			var y float64
			if c.tasks == 0 {
				rt := stm.New(withConfig(sc.Config()))
				b, err := sb7.Build(rt.Direct(), sb7.Default())
				must(err)
				y = RunSTM(rt, sb7Workload(b, c.name, c.threads, 1, sc.SB7Tx, wl.PctRead)).Throughput()
			} else {
				rt := core.New(CoreConfig(sc.Config(), c.tasks))
				b, err := sb7.Build(rt.Direct(), sb7.Default())
				must(err)
				y = RunTLSTM(rt, sb7Workload(b, c.name, c.threads, c.tasks, sc.SB7Tx, wl.PctRead)).Throughput()
				rt.Close()
			}
			s.X = append(s.X, float64(wi))
			s.Y = append(s.Y, y)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
