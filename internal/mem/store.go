// Package mem implements the word-addressed shared memory both runtimes
// operate on: a paged store of 64-bit words with atomic word access, plus
// a free-list allocator with malloc-style block headers.
//
// The store stands in for raw process memory in the paper's C++
// prototype. SwissTM and TLSTM are word-based systems — every conflict is
// detected at word granularity through a lock table keyed by address — so
// a word store with atomic loads and stores exposes exactly the memory
// model the algorithms need, while staying free of data races under the
// Go memory model (speculative readers may race with committing writers
// on the same word; both sides use sync/atomic).
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tlstm/internal/tm"
)

const (
	// pageBits fixes the page size at 2^pageBits words (512 KiB pages).
	pageBits  = 16
	pageWords = 1 << pageBits
	pageMask  = pageWords - 1
)

// page is one fixed-size block of words. Words are accessed only through
// sync/atomic so that speculative readers and committing writers never
// constitute a data race.
type page [pageWords]uint64

// Store is a growable word store. The zero value is not usable; call
// NewStore.
type Store struct {
	// dir is the page directory. Grown copy-on-write under growMu;
	// readers load it atomically and never mutate it.
	dir atomic.Pointer[[]*page]

	growMu sync.Mutex

	// next is the bump pointer for never-before-allocated words.
	// Address 0 is reserved as the nil address.
	next atomic.Uint64
}

// NewStore returns an empty store with one page mapped.
func NewStore() *Store {
	s := &Store{}
	d := make([]*page, 1)
	d[0] = new(page)
	s.dir.Store(&d)
	s.next.Store(1) // keep address 0 unused (tm.NilAddr)
	return s
}

// LoadWord atomically reads the word at a. The address must have been
// produced by an allocator backed by this store.
func (s *Store) LoadWord(a tm.Addr) uint64 {
	p := s.pageFor(a)
	return atomic.LoadUint64(&p[uint64(a)&pageMask])
}

// StoreWord atomically writes v to the word at a.
func (s *Store) StoreWord(a tm.Addr, v uint64) {
	p := s.pageFor(a)
	atomic.StoreUint64(&p[uint64(a)&pageMask], v)
}

func (s *Store) pageFor(a tm.Addr) *page {
	dir := *s.dir.Load()
	idx := uint64(a) >> pageBits
	if idx >= uint64(len(dir)) {
		panic(fmt.Sprintf("mem: address %#x beyond mapped memory (%d pages)", uint64(a), len(dir)))
	}
	return dir[idx]
}

// reserve claims n fresh words and maps pages as needed, returning the
// base address of the run.
func (s *Store) reserve(n uint64) tm.Addr {
	base := s.next.Add(n) - n
	last := base + n - 1
	for {
		dir := *s.dir.Load()
		if (last >> pageBits) < uint64(len(dir)) {
			return tm.Addr(base)
		}
		s.grow(last >> pageBits)
	}
}

func (s *Store) grow(pageIdx uint64) {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	dir := *s.dir.Load()
	if pageIdx < uint64(len(dir)) {
		return
	}
	nd := make([]*page, pageIdx+1)
	copy(nd, dir)
	for i := len(dir); i < len(nd); i++ {
		nd[i] = new(page)
	}
	s.dir.Store(&nd)
}
