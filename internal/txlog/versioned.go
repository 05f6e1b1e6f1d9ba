package txlog

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"tlstm/internal/mode"
	"tlstm/internal/tm"
)

// VersionedRead records one read (or one held lock) of a bare versioned
// lock: the lock word and the version observed (or displaced).
type VersionedRead struct {
	Lock    *atomic.Uint64
	Version uint64
}

// VersionedReadLog is the read set of a runtime built on bare versioned
// locks (TL2, write-through). Reset retains capacity.
type VersionedReadLog struct {
	entries []VersionedRead
}

// Reset empties the log, keeping its backing storage.
func (rl *VersionedReadLog) Reset() { rl.entries = rl.entries[:0] }

// Append records one read.
func (rl *VersionedReadLog) Append(l *atomic.Uint64, version uint64) {
	rl.entries = append(rl.entries, VersionedRead{Lock: l, Version: version})
}

// Entries exposes the recorded reads for validation loops. The slice is
// owned by the log and valid until the next Append or Reset.
func (rl *VersionedReadLog) Entries() []VersionedRead { return rl.entries }

// Len reports the number of recorded reads.
func (rl *VersionedReadLog) Len() int { return len(rl.entries) }

// Fingerprint is the Retry fingerprint of the lock words read, hashed
// like a commit's LockSet.Fingerprint.
func (rl *VersionedReadLog) Fingerprint() mode.Fingerprint { return lockFingerprint(rl.entries) }

func lockFingerprint(vs []VersionedRead) (fp mode.Fingerprint) {
	for _, v := range vs {
		fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(v.Lock)))
	}
	return fp
}

// LockLog is a read log that records only the lock words observed, for
// runtimes whose validation compares every lock against a single read
// version rather than per-entry versions (TL2: any version above rv, or
// a lock held by someone else, kills the transaction). Half the entry
// size of VersionedReadLog, which matters in the validation loop of
// read-heavy workloads. Reset retains capacity.
type LockLog struct {
	locks []*atomic.Uint64
}

// Reset empties the log, keeping its backing storage.
func (ll *LockLog) Reset() { ll.locks = ll.locks[:0] }

// Append records one observed lock.
func (ll *LockLog) Append(l *atomic.Uint64) { ll.locks = append(ll.locks, l) }

// Locks exposes the recorded locks for validation loops. The slice is
// owned by the log and valid until the next Append or Reset.
func (ll *LockLog) Locks() []*atomic.Uint64 { return ll.locks }

// Len reports the number of recorded locks.
func (ll *LockLog) Len() int { return len(ll.locks) }

// Fingerprint is the Retry fingerprint of the lock words read.
func (ll *LockLog) Fingerprint() mode.Fingerprint { return fingerprint(ll.locks) }

// LockSet tracks the versioned locks a transaction holds, with the
// version each acquisition displaced, plus a membership index for O(1)
// holds-this-lock tests (read-own-lock on the load path, self-locked
// entries during validation) and displaced-version lookups (the
// multi-version publish at commit). Reset retains all backing storage.
type LockSet struct {
	held []VersionedRead
	mine map[*atomic.Uint64]int32
}

// Reset empties the set, keeping its backing storage.
func (ls *LockSet) Reset() {
	ls.held = ls.held[:0]
	clear(ls.mine)
}

// Add records that l was acquired, displacing version ver. The caller
// performs the CAS itself (acquisition protocols differ per runtime).
func (ls *LockSet) Add(l *atomic.Uint64, ver uint64) {
	if ls.mine == nil {
		ls.mine = make(map[*atomic.Uint64]int32, 16)
	}
	ls.mine[l] = int32(len(ls.held))
	ls.held = append(ls.held, VersionedRead{Lock: l, Version: ver})
}

// Holds reports whether l is in the set.
func (ls *LockSet) Holds(l *atomic.Uint64) bool {
	_, ok := ls.mine[l]
	return ok
}

// Displaced returns the version this transaction's acquisition of l
// displaced, if l is in the set. Commit-time version publishing uses it
// as the `from` stamp of the interval the overwritten value covered.
func (ls *LockSet) Displaced(l *atomic.Uint64) (uint64, bool) {
	i, ok := ls.mine[l]
	if !ok {
		return 0, false
	}
	return ls.held[i].Version, true
}

// Len reports the number of held locks.
func (ls *LockSet) Len() int { return len(ls.held) }

// Fingerprint is the Retry fingerprint of the locks held: a commit's
// write set. Take it before Publish empties the set.
func (ls *LockSet) Fingerprint() mode.Fingerprint { return lockFingerprint(ls.held) }

// Restore releases every held lock at its displaced version (abort) and
// empties the set. Sound only for a holder that wrote nothing in place
// while it held the locks (TL2); one that did must release at a fresh
// stamp through Publish, or a reader bracketing a dirty value between two
// samples of the same version would accept it (wtstm).
func (ls *LockSet) Restore() {
	for _, h := range ls.held {
		h.Lock.Store(h.Version)
	}
	ls.held = ls.held[:0]
	clear(ls.mine)
}

// Publish releases every held lock at the new version ver (commit) and
// empties the set.
func (ls *LockSet) Publish(ver uint64) {
	for _, h := range ls.held {
		h.Lock.Store(ver)
	}
	ls.held = ls.held[:0]
	clear(ls.mine)
}

// WriteSet is a lazy-versioning write buffer (TL2 style): address →
// latest buffered value, with a reusable scratch for the sorted-address
// commit order. Reset retains all backing storage.
type WriteSet struct {
	vals  map[tm.Addr]uint64
	addrs []tm.Addr
}

// Reset empties the set, keeping its backing storage.
func (ws *WriteSet) Reset() {
	clear(ws.vals)
	ws.addrs = ws.addrs[:0]
}

// Put buffers value v for address a, overwriting any earlier write.
func (ws *WriteSet) Put(a tm.Addr, v uint64) {
	if ws.vals == nil {
		ws.vals = make(map[tm.Addr]uint64, 16)
	}
	ws.vals[a] = v
}

// Get returns the buffered value for a, if any (read-own-write).
func (ws *WriteSet) Get(a tm.Addr) (uint64, bool) {
	v, ok := ws.vals[a]
	return v, ok
}

// Len reports the number of buffered addresses.
func (ws *WriteSet) Len() int { return len(ws.vals) }

// Range calls f for every buffered (address, value) pair, in map order.
func (ws *WriteSet) Range(f func(a tm.Addr, v uint64)) {
	for a, v := range ws.vals {
		f(a, v)
	}
}

// SortedAddrs returns the buffered addresses in ascending order, filled
// into a scratch slice owned by the set (valid until the next Put or
// Reset). Committers lock in this order to avoid deadlock between each
// other.
func (ws *WriteSet) SortedAddrs() []tm.Addr {
	ws.addrs = ws.addrs[:0]
	for a := range ws.vals {
		ws.addrs = append(ws.addrs, a)
	}
	slices.Sort(ws.addrs)
	return ws.addrs
}

// UndoRec is one in-place write's undo record: the target word and the
// value it held before the write.
type UndoRec struct {
	Addr tm.Addr
	Old  uint64
}

// UndoLog is the undo log of a write-through (in-place) STM. Reset
// retains capacity.
type UndoLog struct {
	recs []UndoRec
}

// Reset empties the log, keeping its backing storage.
func (ul *UndoLog) Reset() { ul.recs = ul.recs[:0] }

// Append records that the word at a held old before being overwritten.
func (ul *UndoLog) Append(a tm.Addr, old uint64) {
	ul.recs = append(ul.recs, UndoRec{Addr: a, Old: old})
}

// Recs exposes the records in append order; aborts must replay them in
// reverse. The slice is owned by the log and valid until the next
// Append or Reset.
func (ul *UndoLog) Recs() []UndoRec { return ul.recs }

// Len reports the number of records.
func (ul *UndoLog) Len() int { return len(ul.recs) }
