// Package sb7 is a scaled-down port of STMBench7 (Guerraoui, Kapałka,
// Vitek — EuroSys'07) sufficient for the paper's evaluation (§4,
// Figures 2a and 2b): the CAD-like shared structure — a module whose
// design root is a tree of complex assemblies with three top-level
// branches, base assemblies at the leaves referencing composite parts
// from a shared pool, each composite part owning a connected graph of
// atomic parts — plus the "Long Traversals" operation family, the only
// one the paper parallelizes into speculative tasks.
//
// Two properties of the original drive the paper's results and are
// preserved here:
//
//   - the tree has three branches departing from the root, so long
//     traversals split naturally into multiples of three tasks;
//   - composite parts are shared between base assemblies of different
//     branches, and write traversals update every atomic part they
//     reach plus per-module metadata, so the speculative tasks of a
//     write traversal conflict with each other ("several tasks writing
//     to the same location", §4) and the transaction degenerates to a
//     nearly serial execution — the paper's worst case.
package sb7

import (
	"fmt"

	"tlstm/internal/tm"
)

// Params sizes the structure. The original's CAD model is much larger;
// these defaults keep simulator runs tractable while preserving shape
// (documented substitution: README, "Reproducing the paper's figures").
type Params struct {
	// Levels is the number of complex-assembly levels including the
	// root (original: 7).
	Levels int
	// Fanout is the subassembly count per complex assembly (original
	// and paper: 3 — "three branches departing from the root").
	Fanout int
	// CompPerBase is the number of composite parts per base assembly
	// (original: 3).
	CompPerBase int
	// AtomicPerComp is the number of atomic parts per composite part
	// (original: 200; scaled down).
	AtomicPerComp int
	// NumCompParts is the shared composite-part pool size (original:
	// 500); base assemblies draw from the pool round-robin, so parts
	// are shared across branches.
	NumCompParts int
	// ConnPerPart is the out-degree of each atomic part (original: 3).
	ConnPerPart int
}

// Default is the scaled default configuration used by tests and benches.
func Default() Params {
	return Params{
		Levels:        4,
		Fanout:        3,
		CompPerBase:   3,
		AtomicPerComp: 20,
		NumCompParts:  30,
		ConnPerPart:   3,
	}
}

// Validate reports a descriptive error for unusable parameters.
func (p Params) Validate() error {
	if p.Levels < 2 || p.Fanout < 1 || p.CompPerBase < 1 ||
		p.AtomicPerComp < 1 || p.NumCompParts < 1 || p.ConnPerPart < 0 {
		return fmt.Errorf("sb7: invalid params %+v", p)
	}
	return nil
}

// Atomic part block layout.
const (
	apID        = 0
	apX         = 1
	apY         = 2
	apBuildDate = 3
	apConnBase  = 4 // ConnPerPart connection addresses follow
)

// Composite part block layout.
const (
	cpID        = 0
	cpBuildDate = 1
	cpNParts    = 2
	cpParts     = 3 // address of the parts pointer array
	cpDoc       = 4 // address of the documentation block
	cpRootPart  = 5 // address of the root atomic part

	cpWords = 6
)

// Base assembly block layout.
const (
	baID    = 0
	baNComp = 1
	baComps = 2 // address of the composite-part pointer array

	baWords = 3
)

// Complex assembly block layout.
const (
	caID    = 0
	caLevel = 1
	caNSub  = 2
	caSubs  = 3 // address of the subassembly pointer array
	caIsCpx = 4 // 1 if subassemblies are complex, 0 if base

	caWords = 5
)

// Module block layout.
const (
	mRoot      = 0
	mBuildDate = 1
	mTraversed = 2 // counter bumped by write traversals (shared hot word)

	mWords = 3
)

// Bench is a built STMBench7 instance. The struct itself is immutable
// shared metadata; all state lives in transactional memory.
type Bench struct {
	P      Params
	Module tm.Addr

	// rootAddr caches the design root (immutable after Build).
	rootAddr tm.Addr

	// TopBranches are the root's Fanout subassembly addresses (the
	// 3-way split of the paper's traversals).
	TopBranches []tm.Addr
	// SecondBranches are the Fanout² second-level subassemblies (the
	// 9-way split).
	SecondBranches []tm.Addr

	// TotalAtomicVisits is the number of atomic-part visits a full
	// traversal performs (with pool sharing, composite parts are
	// visited once per referencing base assembly).
	TotalAtomicVisits int
	// TotalCompositeVisits is the number of composite-part visits a
	// full traversal performs; each committed write traversal updates
	// exactly one atomic part date per composite visit.
	TotalCompositeVisits int
}

// Build allocates and links the structure (call on a Direct handle or
// inside a transaction).
func Build(tx tm.Tx, p Params) (*Bench, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := &Bench{P: p}

	// Composite-part pool with deterministic atomic-part graphs.
	pool := make([]tm.Addr, p.NumCompParts)
	for i := range pool {
		pool[i] = buildCompositePart(tx, p, int64(i))
	}

	nextComp := 0
	takeComp := func() tm.Addr {
		a := pool[nextComp%len(pool)]
		nextComp++
		return a
	}

	var nextID int64 = 1
	var buildAssembly func(level int) tm.Addr
	buildAssembly = func(level int) tm.Addr {
		if level == 1 {
			ba := tx.Alloc(baWords)
			tm.StoreInt64(tx, ba+baID, nextID)
			nextID++
			tm.StoreInt64(tx, ba+baNComp, int64(p.CompPerBase))
			arr := tx.Alloc(p.CompPerBase)
			for i := 0; i < p.CompPerBase; i++ {
				tm.StoreAddr(tx, arr+tm.Addr(i), takeComp())
			}
			tm.StoreAddr(tx, ba+baComps, arr)
			return ba
		}
		ca := tx.Alloc(caWords)
		tm.StoreInt64(tx, ca+caID, nextID)
		nextID++
		tm.StoreInt64(tx, ca+caLevel, int64(level))
		tm.StoreInt64(tx, ca+caNSub, int64(p.Fanout))
		arr := tx.Alloc(p.Fanout)
		for i := 0; i < p.Fanout; i++ {
			tm.StoreAddr(tx, arr+tm.Addr(i), buildAssembly(level-1))
		}
		tm.StoreAddr(tx, ca+caSubs, arr)
		if level-1 == 1 {
			tx.Store(ca+caIsCpx, 0)
		} else {
			tx.Store(ca+caIsCpx, 1)
		}
		return ca
	}

	root := buildAssembly(p.Levels)
	mod := tx.Alloc(mWords)
	tm.StoreAddr(tx, mod+mRoot, root)
	tx.Store(mod+mBuildDate, 0)
	tx.Store(mod+mTraversed, 0)
	b.Module = mod
	b.rootAddr = root

	// Cache branch addresses for task splitting.
	if p.Levels >= 2 {
		subs := tm.LoadAddr(tx, root+caSubs)
		for i := 0; i < p.Fanout; i++ {
			b.TopBranches = append(b.TopBranches, tm.LoadAddr(tx, subs+tm.Addr(i)))
		}
	}
	if p.Levels >= 3 {
		for _, t1 := range b.TopBranches {
			subs := tm.LoadAddr(tx, t1+caSubs)
			for i := 0; i < p.Fanout; i++ {
				b.SecondBranches = append(b.SecondBranches, tm.LoadAddr(tx, subs+tm.Addr(i)))
			}
		}
	}

	baseCount := 1
	for l := 1; l < p.Levels; l++ {
		baseCount *= p.Fanout
	}
	b.TotalAtomicVisits = baseCount * p.CompPerBase * p.AtomicPerComp
	b.TotalCompositeVisits = baseCount * p.CompPerBase
	return b, nil
}

func buildCompositePart(tx tm.Tx, p Params, id int64) tm.Addr {
	cp := tx.Alloc(cpWords)
	tm.StoreInt64(tx, cp+cpID, id)
	tx.Store(cp+cpBuildDate, 0)
	tm.StoreInt64(tx, cp+cpNParts, int64(p.AtomicPerComp))
	tm.StoreAddr(tx, cp+cpDoc, newDocument(tx, id,
		fmt.Sprintf("composite part #%d: original unchanged documentation text", id)))
	arr := tx.Alloc(p.AtomicPerComp)
	parts := make([]tm.Addr, p.AtomicPerComp)
	for i := range parts {
		ap := tx.Alloc(apConnBase + p.ConnPerPart)
		tm.StoreInt64(tx, ap+apID, id*int64(p.AtomicPerComp)+int64(i))
		tx.Store(ap+apX, uint64(i))
		tx.Store(ap+apY, uint64(i*i))
		tx.Store(ap+apBuildDate, 0)
		parts[i] = ap
		tm.StoreAddr(tx, arr+tm.Addr(i), ap)
	}
	// Deterministic expander-ish connections.
	for i, ap := range parts {
		for j := 0; j < p.ConnPerPart; j++ {
			to := parts[(i*p.ConnPerPart+j+1)%len(parts)]
			tm.StoreAddr(tx, ap+apConnBase+tm.Addr(j), to)
		}
	}
	tm.StoreAddr(tx, cp+cpParts, arr)
	tm.StoreAddr(tx, cp+cpRootPart, parts[0])
	return cp
}
