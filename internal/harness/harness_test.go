package harness

import (
	"fmt"
	"strings"
	"testing"

	"tlstm/internal/core"
	"tlstm/internal/mode"
	"tlstm/internal/sb7"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/wtstm"
)

func counterWorkload(name string, addr tm.Addr, threads, tasks, txs int) Workload {
	return Workload{
		Name:        name,
		Threads:     threads,
		TxPerThread: txs,
		OpsPerTx:    tasks,
		Make: func(thread, idx int) TxSeq {
			var seq TxSeq
			for i := 0; i < tasks; i++ {
				seq = append(seq, func(tx tm.Tx) {
					tx.Store(addr, tx.Load(addr)+1)
				})
			}
			return seq
		},
	}
}

func TestRunSTMExecutesAllTransactions(t *testing.T) {
	rt := stm.New()
	a := rt.Direct().Alloc(1)
	r := RunSTM(rt, counterWorkload("c", a, 3, 2, 10))
	if got := rt.Direct().Load(a); got != 3*2*10 {
		t.Fatalf("counter = %d, want %d", got, 3*2*10)
	}
	if r.Commits != 30 {
		t.Fatalf("Commits = %d, want 30", r.Commits)
	}
	if r.VirtualUnits == 0 || r.Throughput() <= 0 {
		t.Fatal("virtual time not recorded")
	}
	if r.Mode != mode.Speculative.String() {
		t.Fatalf("Mode = %q, want the runtime's %q", r.Mode, mode.Speculative)
	}
}

func TestRunTLSTMExecutesAllTransactions(t *testing.T) {
	rt := core.New(core.Config{SpecDepth: 2})
	a := rt.Direct().Alloc(1)
	r := RunTLSTM(rt, counterWorkload("c", a, 2, 2, 8))
	if got := rt.Direct().Load(a); got != 2*2*8 {
		t.Fatalf("counter = %d, want %d", got, 2*2*8)
	}
	if r.Commits != 16 {
		t.Fatalf("Commits = %d, want 16", r.Commits)
	}
}

func TestRunTL2ExecutesAllTransactions(t *testing.T) {
	rt := tl2.New(16)
	a := rt.Direct().Alloc(1)
	r := RunTL2(rt, counterWorkload("c", a, 3, 2, 10))
	if got := rt.Direct().Load(a); got != 3*2*10 {
		t.Fatalf("counter = %d, want %d", got, 3*2*10)
	}
	if r.Commits != 30 || r.VirtualUnits == 0 {
		t.Fatalf("bad result: %+v", r)
	}
}

func TestRunWTSTMExecutesAllTransactions(t *testing.T) {
	rt := wtstm.New(16)
	a := rt.Direct().Alloc(1)
	r := RunWTSTM(rt, counterWorkload("c", a, 3, 2, 10))
	if got := rt.Direct().Load(a); got != 3*2*10 {
		t.Fatalf("counter = %d, want %d", got, 3*2*10)
	}
	if r.Commits != 30 || r.VirtualUnits == 0 {
		t.Fatalf("bad result: %+v", r)
	}
}

func TestChunkCoversRange(t *testing.T) {
	for n := 1; n <= 20; n++ {
		for k := 1; k <= 10; k++ {
			cs := chunk(n, k)
			covered := 0
			for _, c := range cs {
				covered += c[1] - c[0]
			}
			if covered != n || cs[0][0] != 0 || cs[len(cs)-1][1] != n {
				t.Fatalf("chunk(%d,%d) = %v does not cover", n, k, cs)
			}
		}
	}
}

// Virtual-time sanity: splitting read-only work into k tasks must beat
// the unsplit baseline, since the per-task critical path shrinks.
func TestVirtualTimeRewardsSplitting(t *testing.T) {
	mk := func(tasks int) Result {
		rt := core.New(core.Config{SpecDepth: tasks})
		b, err := sb7.Build(rt.Direct(), sb7.Default())
		if err != nil {
			t.Fatal(err)
		}
		return RunTLSTM(rt, sb7Workload(b, "x", 1, tasks, 3, 100))
	}
	r1 := mk(1)
	r3 := mk(3)
	if r3.Throughput() <= r1.Throughput() {
		t.Fatalf("3-task read traversal should beat 1-task: %.3f vs %.3f",
			r3.Throughput(), r1.Throughput())
	}
}

// Write traversals conflict intra-thread; the split must NOT show the
// read-side speedup (the paper's central negative result).
func TestWriteTraversalSplitDoesNotScale(t *testing.T) {
	mk := func(tasks int) Result {
		rt := core.New(core.Config{SpecDepth: tasks})
		b, err := sb7.Build(rt.Direct(), sb7.Default())
		if err != nil {
			t.Fatal(err)
		}
		return RunTLSTM(rt, sb7Workload(b, "x", 1, tasks, 3, 0))
	}
	r1 := mk(1)
	r3 := mk(3)
	readGain := func() float64 {
		rt := core.New(core.Config{SpecDepth: 3})
		b, _ := sb7.Build(rt.Direct(), sb7.Default())
		rr3 := RunTLSTM(rt, sb7Workload(b, "x", 1, 3, 3, 100))
		rt1 := core.New(core.Config{SpecDepth: 1})
		b1, _ := sb7.Build(rt1.Direct(), sb7.Default())
		rr1 := RunTLSTM(rt1, sb7Workload(b1, "x", 1, 1, 3, 100))
		return rr3.Throughput() / rr1.Throughput()
	}()
	writeGain := r3.Throughput() / r1.Throughput()
	if writeGain >= readGain {
		t.Fatalf("write split gain %.3f should trail read split gain %.3f", writeGain, readGain)
	}
}

func TestFigureFormat(t *testing.T) {
	f := Figure{
		Title:  "demo",
		XLabel: "x",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{0.5, 1.5}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{2.5, 3.5}},
		},
	}
	out := f.Format()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "a") || !strings.Contains(out, "3.500") {
		t.Fatalf("format output missing pieces:\n%s", out)
	}
}

// Smoke-run every figure at tiny scale: they must produce full series
// with positive throughputs.
func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figures are slow")
	}
	sc := Scale{Fig1aTx: 10, Fig1bTx: 2, SB7Tx: 2}

	f1a := Fig1a(sc)
	if len(f1a.Series) != 2 || len(f1a.Series[0].Y) != len(Fig1aOpCounts) {
		t.Fatalf("Fig1a shape wrong: %+v", f1a)
	}
	for _, s := range f1a.Series {
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("Fig1a %s[%d] = %f", s.Name, i, y)
			}
		}
	}

	f2a := Fig2a(sc)
	if len(f2a.Series) != 3 || len(f2a.Series[0].Y) != len(Fig2aReadPcts) {
		t.Fatalf("Fig2a shape wrong")
	}
	for _, s := range f2a.Series {
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("Fig2a %s has non-positive point", s.Name)
			}
		}
	}
}

// The scheduler counters must flow from thread shards into Result and
// show steady-state pooling: workers bounded by threads×SpecDepth, and
// descriptor reuse dominating once warmed.
func TestResultSurfacesSchedulerCounters(t *testing.T) {
	rt := core.New(core.Config{SpecDepth: 3})
	defer rt.Close()
	b, err := sb7.Build(rt.Direct(), sb7.Default())
	if err != nil {
		t.Fatal(err)
	}
	r := RunTLSTM(rt, sb7Workload(b, "x", 2, 3, 5, 100))
	if r.WorkersSpawned == 0 || r.WorkersSpawned > 2*3 {
		t.Fatalf("WorkersSpawned = %d, want in (0, %d]", r.WorkersSpawned, 2*3)
	}
	if r.DescriptorReuses == 0 {
		t.Fatal("DescriptorReuses = 0 on a warmed run")
	}
	if s := r.String(); !strings.Contains(s, "workers=") || !strings.Contains(s, "descReuse=") {
		t.Fatalf("Result.String does not surface scheduler counters: %q", s)
	}
}

// labelsOf lists the sweep's row labels, one engine per column: the
// four engines' labels for each "mix/leg" (or leg) suffix in order.
func labelsOf(suffixes ...string) []string {
	var out []string
	for _, sfx := range suffixes {
		for _, e := range []string{"SwissTM", "TL2", "wtstm", "TLSTM"} {
			out = append(out, e+"/"+sfx)
		}
	}
	return out
}

// Every sweep must produce exactly its row labels, commit every
// transaction (each row's end state is also invariant-checked
// inside the runner), carry its leg's setting in the row's own
// configuration labels, and show the activity its axis exists to
// measure.
func TestSweepMatrix(t *testing.T) {
	const threads = 2
	for _, tc := range []struct {
		axis   string
		tx     int
		labels []string
		row    func(t *testing.T, r Result)
		sweep  func(t *testing.T, rs []Result)
	}{
		{
			axis:   "cm",
			tx:     150,
			labels: labelsOf("suicide", "backoff", "greedy", "karma", "taskaware"),
			row: func(t *testing.T, r Result) {
				if !strings.HasSuffix(r.Label, "/"+r.CM) {
					t.Errorf("label %q does not carry its policy %q", r.Label, r.CM)
				}
			},
			// A sweep with zero contention-manager activity would compare
			// nothing.
			sweep: func(t *testing.T, rs []Result) {
				var activity uint64
				for _, r := range rs {
					activity += r.CMAbortsSelf + r.CMAbortsOwner + r.BackoffSpins
				}
				if activity == 0 {
					t.Error("sweep produced no contention-manager activity: the workload is not contended")
				}
			},
		},
		{
			axis:   "mode",
			tx:     150,
			labels: labelsOf("spec", "adaptive", "serial"),
			row: func(t *testing.T, r Result) {
				if !strings.HasSuffix(r.Label, "/"+r.Mode) {
					t.Errorf("label %q does not carry its mode %q", r.Label, r.Mode)
				}
			},
		},
		{
			axis: "mv",
			tx:   200,
			labels: labelsOf("90-10/mv0", "90-10/mv1", "90-10/mv2", "90-10/mv3",
				"99-1/mv0", "99-1/mv1", "99-1/mv2", "99-1/mv3"),
			// Depth-0 runs report no mv reads, and read-only transactions on
			// the mv path land in the read-set histogram's zero bucket.
			row: func(t *testing.T, r Result) {
				if !strings.HasSuffix(r.Label, fmt.Sprintf("/mv%d", r.MV)) {
					t.Errorf("label %q does not carry its depth %d", r.Label, r.MV)
				}
				if r.MV == 0 {
					if r.MVReads != 0 || r.MVMisses != 0 {
						t.Errorf("%s: mv counters moved with multi-versioning off: %d/%d", r.Label, r.MVReads, r.MVMisses)
					}
					return
				}
				if !strings.Contains(r.String(), "mv=") {
					t.Errorf("%s: Result.String does not surface mv counters: %q", r.Label, r.String())
				}
				if r.ReadSetSizes[0] == 0 {
					t.Errorf("%s: no read-only transaction landed in the empty-read-set bucket", r.Label)
				}
			},
			sweep: func(t *testing.T, rs []Result) {
				var mvReads uint64
				for _, r := range rs {
					if r.MV > 0 {
						mvReads += r.MVReads
					}
				}
				if mvReads == 0 {
					t.Error("no run with multi-versioning on served a single wait-free read")
				}
			},
		},
	} {
		t.Run(tc.axis, func(t *testing.T) {
			s, ok := Sweeps[tc.axis]
			if !ok {
				t.Fatalf("no sweep for axis %q", tc.axis)
			}
			rs := s.Run(threads, tc.tx)
			var got []string
			for _, r := range rs {
				got = append(got, r.Label)
			}
			if strings.Join(got, " ") != strings.Join(tc.labels, " ") {
				t.Fatalf("sweep rows:\n got %v\nwant %v", got, tc.labels)
			}
			for _, r := range rs {
				if r.Commits != threads*uint64(tc.tx) {
					t.Errorf("%s committed %d, want %d", r.Label, r.Commits, threads*tc.tx)
				}
				tc.row(t, r)
			}
			if tc.sweep != nil {
				tc.sweep(t, rs)
			}
		})
	}
}
