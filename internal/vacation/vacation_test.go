package vacation

import (
	"sync"
	"testing"

	"tlstm/internal/core"
	"tlstm/internal/mem"
	"tlstm/internal/stm"
)

func direct() mem.Direct {
	s := mem.NewStore()
	return mem.Direct{Mem: s, Al: mem.NewAllocator(s)}
}

func smallParams() Params {
	return Params{Relations: 64, QueryRange: 90, PctUser: 80, QueriesPerOp: 2}
}

func TestManagerBasics(t *testing.T) {
	d := direct()
	m := NewManager(d, 16)
	if !m.AddResource(d, Car, 1, 10, 50) {
		t.Fatal("AddResource failed")
	}
	if m.QueryFree(d, Car, 1) != 10 || m.QueryPrice(d, Car, 1) != 50 {
		t.Fatal("query mismatch")
	}
	if !m.AddCustomer(d, 7) || m.AddCustomer(d, 7) {
		t.Fatal("AddCustomer duplicate handling wrong")
	}
	if !m.Reserve(d, 7, Car, 1) {
		t.Fatal("Reserve failed")
	}
	if m.Reserve(d, 7, Car, 1) {
		t.Fatal("double reservation of the same resource must fail")
	}
	if m.QueryFree(d, Car, 1) != 9 {
		t.Fatal("free count not decremented")
	}
	if msg := m.CheckInvariants(d); msg != "" {
		t.Fatal(msg)
	}
}

func TestDeleteCustomerReleasesAll(t *testing.T) {
	d := direct()
	m := NewManager(d, 16)
	m.AddResource(d, Car, 1, 5, 10)
	m.AddResource(d, Room, 2, 5, 20)
	m.AddCustomer(d, 3)
	m.Reserve(d, 3, Car, 1)
	m.Reserve(d, 3, Room, 2)
	if bill := m.DeleteCustomer(d, 3); bill != 30 {
		t.Fatalf("bill = %d, want 30", bill)
	}
	if m.QueryFree(d, Car, 1) != 5 || m.QueryFree(d, Room, 2) != 5 {
		t.Fatal("capacity not released")
	}
	if m.DeleteCustomer(d, 3) != -1 {
		t.Fatal("deleting a missing customer must return -1")
	}
	if msg := m.CheckInvariants(d); msg != "" {
		t.Fatal(msg)
	}
}

func TestDeleteResourceBounds(t *testing.T) {
	d := direct()
	m := NewManager(d, 4)
	m.AddResource(d, Flight, 9, 10, 5)
	if m.DeleteResource(d, Flight, 9, 20) {
		t.Fatal("removing more capacity than free must fail")
	}
	if !m.DeleteResource(d, Flight, 9, 10) {
		t.Fatal("removing free capacity must succeed")
	}
	if m.QueryFree(d, Flight, 9) != 0 {
		t.Fatal("free must be zero")
	}
	if msg := m.CheckInvariants(d); msg != "" {
		t.Fatal(msg)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	p := smallParams()
	r1, r2 := NewRng(5), NewRng(5)
	for i := 0; i < 100; i++ {
		a, b := p.Generate(r1), p.Generate(r2)
		if a.Kind != b.Kind || a.Customer != b.Customer || len(a.Queries) != len(b.Queries) {
			t.Fatal("generator must be deterministic per seed")
		}
	}
}

func TestGeneratorMix(t *testing.T) {
	p := smallParams()
	r := NewRng(1)
	counts := map[OpKind]int{}
	for i := 0; i < 2000; i++ {
		counts[p.Generate(r).Kind]++
	}
	if counts[OpMakeReservation] < 1400 || counts[OpMakeReservation] > 1900 {
		t.Fatalf("reservation mix off: %v", counts)
	}
	if counts[OpDeleteCustomer] == 0 || counts[OpUpdateTables] == 0 {
		t.Fatalf("missing op kinds: %v", counts)
	}
}

// The workload preserves manager invariants under the SwissTM baseline
// with concurrent clients.
func TestWorkloadInvariantsSTM(t *testing.T) {
	rt := stm.New(stm.WithLockTableBits(16))
	d := mem.Direct{}
	_ = d
	p := smallParams()
	var m *Manager
	setup := rt.Direct()
	m = NewManager(setup, 64)
	Populate(setup, m, p)

	const clients, txs = 4, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := NewRng(seed)
			for i := 0; i < txs; i++ {
				ops := make([]Op, 8)
				for j := range ops {
					ops[j] = p.Generate(r)
				}
				rt.Atomic(nil, func(tx *stm.Tx) {
					for _, op := range ops {
						m.Execute(tx, op)
					}
				})
			}
		}(uint64(c + 1))
	}
	wg.Wait()
	if msg := m.CheckInvariants(rt.Direct()); msg != "" {
		t.Fatal(msg)
	}
}

// The same workload under TLSTM, with the paper's 8-operation
// transactions split into two tasks of four operations.
func TestWorkloadInvariantsTLSTM(t *testing.T) {
	rt := core.New(core.Config{SpecDepth: 2, LockTableBits: 16})
	p := smallParams()
	setup := rt.Direct()
	m := NewManager(setup, 64)
	Populate(setup, m, p)

	const clients, txs = 3, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		thr := rt.NewThread()
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := NewRng(seed)
			for i := 0; i < txs; i++ {
				ops := make([]Op, 8)
				for j := range ops {
					ops[j] = p.Generate(r)
				}
				first, second := ops[:4], ops[4:]
				_ = thr.Atomic(
					func(tk *core.Task) {
						for _, op := range first {
							m.Execute(tk, op)
						}
					},
					func(tk *core.Task) {
						for _, op := range second {
							m.Execute(tk, op)
						}
					},
				)
			}
			thr.Sync()
		}(uint64(c + 1))
	}
	wg.Wait()
	if msg := m.CheckInvariants(rt.Direct()); msg != "" {
		t.Fatal(msg)
	}
}
