// Package vacation is a port of the STAMP Vacation application (Cao
// Minh et al., IISWC'08) to word-addressed transactional memory: an
// online travel-reservation OLTP system with three resource tables
// (cars, flights, rooms) and a customer table, exercised by clients
// issuing reservation, cancellation and table-update operations.
//
// The paper modifies Vacation for TLSTM (§4, Figure 1b): each client
// issues eight operations inside one application-server transaction,
// which splits naturally into two speculative tasks of four operations.
// This package provides the manager and the operation generator; the
// split across SwissTM transactions and TLSTM tasks is driven by the
// benchmark harness.
package vacation

import (
	"tlstm/internal/rbtree"
	"tlstm/internal/tm"
	"tlstm/internal/tmhash"
	"tlstm/internal/tmlist"
)

// ResourceKind selects one of the three reservation tables.
type ResourceKind int

// Resource kinds (STAMP's RESERVATION_CAR/FLIGHT/ROOM).
const (
	Car ResourceKind = iota + 1
	Flight
	Room
	numKinds = 3
)

// Reservation record layout: one block per resource id.
const (
	rNumUsed  = 0
	rNumFree  = 1
	rNumTotal = 2
	rPrice    = 3

	reservationWords = 4
)

// Customer record layout.
const (
	cID   = 0
	cList = 1 // head address of the reservation-info list

	customerWords = 2
)

// Manager owns the four tables. The handle is plain data (addresses) and
// may be shared across threads; all mutation goes through tm.Tx.
type Manager struct {
	tables    [numKinds]rbtree.Tree // car, flight, room: id → reservation block
	customers tmhash.Map            // id → customer block
}

// NewManager allocates empty tables. Call during single-threaded setup
// (Direct) or inside a transaction.
func NewManager(tx tm.Tx, customerBuckets int) *Manager {
	m := &Manager{}
	for i := 0; i < numKinds; i++ {
		m.tables[i] = rbtree.New(tx)
	}
	m.customers = tmhash.New(tx, customerBuckets)
	return m
}

func (m *Manager) table(k ResourceKind) rbtree.Tree {
	return m.tables[k-1]
}

// AddResource creates or grows the resource (kind,id) by num units at
// the given price (STAMP manager_add*). A negative num shrinks the free
// pool (but never below zero, and never below used slots).
func (m *Manager) AddResource(tx tm.Tx, kind ResourceKind, id int64, num int64, price int64) bool {
	t := m.table(kind)
	if blk, ok := t.Lookup(tx, id); ok {
		b := tm.Addr(blk)
		free := tm.LoadInt64(tx, b+rNumFree)
		total := tm.LoadInt64(tx, b+rNumTotal)
		if num < 0 && free+num < 0 {
			return false
		}
		tm.StoreInt64(tx, b+rNumFree, free+num)
		tm.StoreInt64(tx, b+rNumTotal, total+num)
		if price >= 0 {
			tm.StoreInt64(tx, b+rPrice, price)
		}
		return true
	}
	if num < 0 {
		return false
	}
	b := tx.Alloc(reservationWords)
	tm.StoreInt64(tx, b+rNumUsed, 0)
	tm.StoreInt64(tx, b+rNumFree, num)
	tm.StoreInt64(tx, b+rNumTotal, num)
	tm.StoreInt64(tx, b+rPrice, price)
	t.Insert(tx, id, uint64(b))
	return true
}

// DeleteResource removes num units of capacity (STAMP manager_delete*).
func (m *Manager) DeleteResource(tx tm.Tx, kind ResourceKind, id int64, num int64) bool {
	return m.AddResource(tx, kind, id, -num, -1)
}

// QueryFree returns the free unit count of (kind,id), or -1 if absent.
func (m *Manager) QueryFree(tx tm.Tx, kind ResourceKind, id int64) int64 {
	blk, ok := m.table(kind).Lookup(tx, id)
	if !ok {
		return -1
	}
	return tm.LoadInt64(tx, tm.Addr(blk)+rNumFree)
}

// QueryPrice returns the price of (kind,id), or -1 if absent.
func (m *Manager) QueryPrice(tx tm.Tx, kind ResourceKind, id int64) int64 {
	blk, ok := m.table(kind).Lookup(tx, id)
	if !ok {
		return -1
	}
	return tm.LoadInt64(tx, tm.Addr(blk)+rPrice)
}

// AddCustomer registers the customer if absent (STAMP manager_addCustomer).
func (m *Manager) AddCustomer(tx tm.Tx, id int64) bool {
	if m.customers.Contains(tx, id) {
		return false
	}
	c := tx.Alloc(customerWords)
	tm.StoreInt64(tx, c+cID, id)
	l := tmlist.New(tx)
	tm.StoreAddr(tx, c+cList, l.Head())
	m.customers.Insert(tx, id, uint64(c))
	return true
}

// reservationKey packs (kind,id) into one list key.
func reservationKey(kind ResourceKind, id int64) int64 {
	return int64(kind)<<40 | id
}

// Reserve books one unit of (kind,id) for the customer, recording the
// price paid in the customer's reservation list (STAMP manager_reserve).
func (m *Manager) Reserve(tx tm.Tx, customer int64, kind ResourceKind, id int64) bool {
	cBlk, ok := m.customers.Lookup(tx, customer)
	if !ok {
		return false
	}
	blk, ok := m.table(kind).Lookup(tx, id)
	if !ok {
		return false
	}
	b := tm.Addr(blk)
	free := tm.LoadInt64(tx, b+rNumFree)
	if free <= 0 {
		return false
	}
	list := tmlist.Handle(tm.LoadAddr(tx, tm.Addr(cBlk)+cList))
	key := reservationKey(kind, id)
	if list.Contains(tx, key) {
		return false // already holds one (STAMP allows one per resource)
	}
	tm.StoreInt64(tx, b+rNumFree, free-1)
	tm.StoreInt64(tx, b+rNumUsed, tm.LoadInt64(tx, b+rNumUsed)+1)
	list.Insert(tx, key, uint64(tm.LoadInt64(tx, b+rPrice)))
	return true
}

// DeleteCustomer removes the customer, releasing every booking and
// returning the total bill (STAMP manager_deleteCustomer), or -1 if the
// customer does not exist.
func (m *Manager) DeleteCustomer(tx tm.Tx, customer int64) int64 {
	cBlk, ok := m.customers.Lookup(tx, customer)
	if !ok {
		return -1
	}
	list := tmlist.Handle(tm.LoadAddr(tx, tm.Addr(cBlk)+cList))
	var bill int64
	var keys []int64
	list.Each(tx, func(k int64, v uint64) bool {
		bill += int64(v)
		keys = append(keys, k)
		return true
	})
	for _, k := range keys {
		kind := ResourceKind(k >> 40)
		id := k & (1<<40 - 1)
		if blk, ok := m.table(kind).Lookup(tx, id); ok {
			b := tm.Addr(blk)
			tm.StoreInt64(tx, b+rNumFree, tm.LoadInt64(tx, b+rNumFree)+1)
			tm.StoreInt64(tx, b+rNumUsed, tm.LoadInt64(tx, b+rNumUsed)-1)
		}
	}
	list.Clear(tx)
	tx.Free(tm.LoadAddr(tx, tm.Addr(cBlk)+cList)) // the list header block
	m.customers.Delete(tx, customer)
	tx.Free(tm.Addr(cBlk))
	return bill
}

// CheckInvariants verifies, non-transactionally (setup/teardown or under
// a quiesced runtime), that every resource satisfies used+free == total,
// used ≥ 0, free ≥ 0, and that customer bookings exactly account for the
// used units. It returns "" when consistent.
func (m *Manager) CheckInvariants(tx tm.Tx) string {
	used := map[int64]int64{} // reservationKey → used count from tables
	for kind := Car; kind <= Room; kind++ {
		bad := ""
		m.table(kind).Range(tx, 0, 1<<40, func(id int64, blk uint64) bool {
			b := tm.Addr(blk)
			u := tm.LoadInt64(tx, b+rNumUsed)
			f := tm.LoadInt64(tx, b+rNumFree)
			tot := tm.LoadInt64(tx, b+rNumTotal)
			if u < 0 || f < 0 || u+f != tot {
				bad = "resource accounting broken"
				return false
			}
			if u != 0 {
				used[reservationKey(kind, id)] = u
			}
			return true
		})
		if bad != "" {
			return bad
		}
	}
	booked := map[int64]int64{}
	m.customers.Each(tx, func(id int64, cBlk uint64) bool {
		list := tmlist.Handle(tm.LoadAddr(tx, tm.Addr(cBlk)+cList))
		list.Each(tx, func(k int64, v uint64) bool {
			booked[k]++
			return true
		})
		return true
	})
	if len(used) != len(booked) {
		return "used resources do not match customer bookings"
	}
	for k, u := range used {
		if booked[k] != u {
			return "used count does not match bookings"
		}
	}
	return ""
}
