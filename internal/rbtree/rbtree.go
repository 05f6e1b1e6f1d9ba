// Package rbtree implements the transactional red-black tree used by the
// paper's microbenchmark (§4, Figure 1a) and as an index structure by
// the Vacation application, operating on word-addressed transactional
// memory through the tm.Tx interface — the same data structure runs on
// the SwissTM baseline and on TLSTM tasks.
//
// Layout: the tree is a one-word header holding the root address; nodes
// are 6-word blocks (key, value, left, right, parent, color). All
// pointers are word-encoded addresses; tm.NilAddr is the leaf sentinel.
package rbtree

import "tlstm/internal/tm"

// Node field offsets.
const (
	fKey    = 0
	fVal    = 1
	fLeft   = 2
	fRight  = 3
	fParent = 4
	fColor  = 5

	nodeWords = 6

	red   = 0
	black = 1
)

// Tree is a handle to a transactional red-black tree rooted at a header
// word. The zero value is invalid; use New.
type Tree struct {
	head tm.Addr // head+0: root, head+1: size
}

const headWords = 2

// New allocates an empty tree using tx (which may be a runtime's Direct
// handle during setup).
func New(tx tm.Tx) Tree {
	h := tx.Alloc(headWords)
	tx.Store(h+0, uint64(tm.NilAddr))
	tx.Store(h+1, 0)
	return Tree{head: h}
}

// Handle reconstructs a Tree from its header address (for sharing the
// tree across threads by address).
func Handle(head tm.Addr) Tree { return Tree{head: head} }

// Head exposes the tree's header address.
func (t Tree) Head() tm.Addr { return t.head }

func (t Tree) root(tx tm.Tx) tm.Addr       { return tm.LoadAddr(tx, t.head) }
func (t Tree) setRoot(tx tm.Tx, r tm.Addr) { tm.StoreAddr(tx, t.head, r) }

// Size reports the number of keys in the tree.
func (t Tree) Size(tx tm.Tx) int { return int(tx.Load(t.head + 1)) }

func (t Tree) bumpSize(tx tm.Tx, d int) {
	tx.Store(t.head+1, uint64(int64(tx.Load(t.head+1))+int64(d)))
}

func key(tx tm.Tx, n tm.Addr) int64      { return tm.LoadInt64(tx, n+fKey) }
func val(tx tm.Tx, n tm.Addr) uint64     { return tx.Load(n + fVal) }
func left(tx tm.Tx, n tm.Addr) tm.Addr   { return tm.LoadAddr(tx, n+fLeft) }
func right(tx tm.Tx, n tm.Addr) tm.Addr  { return tm.LoadAddr(tx, n+fRight) }
func parent(tx tm.Tx, n tm.Addr) tm.Addr { return tm.LoadAddr(tx, n+fParent) }
func color(tx tm.Tx, n tm.Addr) uint64 {
	if n == tm.NilAddr {
		return black // nil leaves are black
	}
	return tx.Load(n + fColor)
}

func setLeft(tx tm.Tx, n, v tm.Addr)   { tm.StoreAddr(tx, n+fLeft, v) }
func setRight(tx tm.Tx, n, v tm.Addr)  { tm.StoreAddr(tx, n+fRight, v) }
func setParent(tx tm.Tx, n, v tm.Addr) { tm.StoreAddr(tx, n+fParent, v) }
func setColor(tx tm.Tx, n tm.Addr, c uint64) {
	if n != tm.NilAddr {
		tx.Store(n+fColor, c)
	}
}

// Lookup returns the value stored under k.
func (t Tree) Lookup(tx tm.Tx, k int64) (uint64, bool) {
	n := t.root(tx)
	for n != tm.NilAddr {
		nk := key(tx, n)
		switch {
		case k < nk:
			n = left(tx, n)
		case k > nk:
			n = right(tx, n)
		default:
			return val(tx, n), true
		}
	}
	return 0, false
}

// Contains reports whether k is present.
func (t Tree) Contains(tx tm.Tx, k int64) bool {
	_, ok := t.Lookup(tx, k)
	return ok
}

// Insert adds k→v; if k is already present the value is updated and
// Insert reports false (no new key).
func (t Tree) Insert(tx tm.Tx, k int64, v uint64) bool {
	var p tm.Addr
	n := t.root(tx)
	for n != tm.NilAddr {
		nk := key(tx, n)
		switch {
		case k < nk:
			p = n
			n = left(tx, n)
		case k > nk:
			p = n
			n = right(tx, n)
		default:
			tx.Store(n+fVal, v)
			return false
		}
	}
	nn := tx.Alloc(nodeWords)
	tm.StoreInt64(tx, nn+fKey, k)
	tx.Store(nn+fVal, v)
	setLeft(tx, nn, tm.NilAddr)
	setRight(tx, nn, tm.NilAddr)
	setParent(tx, nn, p)
	setColor(tx, nn, red)
	if p == tm.NilAddr {
		t.setRoot(tx, nn)
	} else if k < key(tx, p) {
		setLeft(tx, p, nn)
	} else {
		setRight(tx, p, nn)
	}
	t.insertFixup(tx, nn)
	t.bumpSize(tx, 1)
	return true
}

func (t Tree) rotateLeft(tx tm.Tx, x tm.Addr) {
	y := right(tx, x)
	yl := left(tx, y)
	setRight(tx, x, yl)
	if yl != tm.NilAddr {
		setParent(tx, yl, x)
	}
	xp := parent(tx, x)
	setParent(tx, y, xp)
	if xp == tm.NilAddr {
		t.setRoot(tx, y)
	} else if x == left(tx, xp) {
		setLeft(tx, xp, y)
	} else {
		setRight(tx, xp, y)
	}
	setLeft(tx, y, x)
	setParent(tx, x, y)
}

func (t Tree) rotateRight(tx tm.Tx, x tm.Addr) {
	y := left(tx, x)
	yr := right(tx, y)
	setLeft(tx, x, yr)
	if yr != tm.NilAddr {
		setParent(tx, yr, x)
	}
	xp := parent(tx, x)
	setParent(tx, y, xp)
	if xp == tm.NilAddr {
		t.setRoot(tx, y)
	} else if x == right(tx, xp) {
		setRight(tx, xp, y)
	} else {
		setLeft(tx, xp, y)
	}
	setRight(tx, y, x)
	setParent(tx, x, y)
}

func (t Tree) insertFixup(tx tm.Tx, z tm.Addr) {
	for {
		zp := parent(tx, z)
		if zp == tm.NilAddr || color(tx, zp) == black {
			break
		}
		zpp := parent(tx, zp)
		if zp == left(tx, zpp) {
			u := right(tx, zpp)
			if color(tx, u) == red {
				setColor(tx, zp, black)
				setColor(tx, u, black)
				setColor(tx, zpp, red)
				z = zpp
				continue
			}
			if z == right(tx, zp) {
				z = zp
				t.rotateLeft(tx, z)
				zp = parent(tx, z)
				zpp = parent(tx, zp)
			}
			setColor(tx, zp, black)
			setColor(tx, zpp, red)
			t.rotateRight(tx, zpp)
		} else {
			u := left(tx, zpp)
			if color(tx, u) == red {
				setColor(tx, zp, black)
				setColor(tx, u, black)
				setColor(tx, zpp, red)
				z = zpp
				continue
			}
			if z == left(tx, zp) {
				z = zp
				t.rotateRight(tx, z)
				zp = parent(tx, z)
				zpp = parent(tx, zp)
			}
			setColor(tx, zp, black)
			setColor(tx, zpp, red)
			t.rotateLeft(tx, zpp)
		}
	}
	setColor(tx, t.root(tx), black)
}

func (t Tree) minimum(tx tm.Tx, n tm.Addr) tm.Addr {
	for {
		l := left(tx, n)
		if l == tm.NilAddr {
			return n
		}
		n = l
	}
}

// Min returns the smallest key (ok=false when empty).
func (t Tree) Min(tx tm.Tx) (int64, uint64, bool) {
	r := t.root(tx)
	if r == tm.NilAddr {
		return 0, 0, false
	}
	n := t.minimum(tx, r)
	return key(tx, n), val(tx, n), true
}

// transplant replaces subtree u with subtree v (v may be nil; vp is v's
// future parent when v is nil).
func (t Tree) transplant(tx tm.Tx, u, v tm.Addr) {
	up := parent(tx, u)
	if up == tm.NilAddr {
		t.setRoot(tx, v)
	} else if u == left(tx, up) {
		setLeft(tx, up, v)
	} else {
		setRight(tx, up, v)
	}
	if v != tm.NilAddr {
		setParent(tx, v, up)
	}
}

// Delete removes k, reporting whether it was present.
func (t Tree) Delete(tx tm.Tx, k int64) bool {
	z := t.root(tx)
	for z != tm.NilAddr {
		zk := key(tx, z)
		if k < zk {
			z = left(tx, z)
		} else if k > zk {
			z = right(tx, z)
		} else {
			break
		}
	}
	if z == tm.NilAddr {
		return false
	}

	y := z
	yOrigColor := color(tx, y)
	var x, xParent tm.Addr

	if left(tx, z) == tm.NilAddr {
		x = right(tx, z)
		xParent = parent(tx, z)
		t.transplant(tx, z, x)
	} else if right(tx, z) == tm.NilAddr {
		x = left(tx, z)
		xParent = parent(tx, z)
		t.transplant(tx, z, x)
	} else {
		y = t.minimum(tx, right(tx, z))
		yOrigColor = color(tx, y)
		x = right(tx, y)
		if parent(tx, y) == z {
			xParent = y
			if x != tm.NilAddr {
				setParent(tx, x, y)
			}
		} else {
			xParent = parent(tx, y)
			t.transplant(tx, y, x)
			setRight(tx, y, right(tx, z))
			setParent(tx, right(tx, y), y)
		}
		t.transplant(tx, z, y)
		setLeft(tx, y, left(tx, z))
		setParent(tx, left(tx, y), y)
		setColor(tx, y, color(tx, z))
	}

	if yOrigColor == black {
		t.deleteFixup(tx, x, xParent)
	}
	tx.Free(z)
	t.bumpSize(tx, -1)
	return true
}

// deleteFixup restores red-black invariants after removing a black node.
// x may be nil, in which case xParent identifies its position.
func (t Tree) deleteFixup(tx tm.Tx, x, xParent tm.Addr) {
	for x != t.root(tx) && color(tx, x) == black {
		if xParent == tm.NilAddr {
			break
		}
		if x == left(tx, xParent) {
			w := right(tx, xParent)
			if color(tx, w) == red {
				setColor(tx, w, black)
				setColor(tx, xParent, red)
				t.rotateLeft(tx, xParent)
				w = right(tx, xParent)
			}
			if color(tx, left(tx, w)) == black && color(tx, right(tx, w)) == black {
				setColor(tx, w, red)
				x = xParent
				xParent = parent(tx, x)
			} else {
				if color(tx, right(tx, w)) == black {
					setColor(tx, left(tx, w), black)
					setColor(tx, w, red)
					t.rotateRight(tx, w)
					w = right(tx, xParent)
				}
				setColor(tx, w, color(tx, xParent))
				setColor(tx, xParent, black)
				setColor(tx, right(tx, w), black)
				t.rotateLeft(tx, xParent)
				x = t.root(tx)
				xParent = tm.NilAddr
			}
		} else {
			w := left(tx, xParent)
			if color(tx, w) == red {
				setColor(tx, w, black)
				setColor(tx, xParent, red)
				t.rotateRight(tx, xParent)
				w = left(tx, xParent)
			}
			if color(tx, right(tx, w)) == black && color(tx, left(tx, w)) == black {
				setColor(tx, w, red)
				x = xParent
				xParent = parent(tx, x)
			} else {
				if color(tx, left(tx, w)) == black {
					setColor(tx, right(tx, w), black)
					setColor(tx, w, red)
					t.rotateLeft(tx, w)
					w = left(tx, xParent)
				}
				setColor(tx, w, color(tx, xParent))
				setColor(tx, xParent, black)
				setColor(tx, left(tx, w), black)
				t.rotateRight(tx, xParent)
				x = t.root(tx)
				xParent = tm.NilAddr
			}
		}
	}
	setColor(tx, x, black)
}

// Range calls fn for every key in [lo, hi] in ascending order; fn
// returning false stops the walk.
func (t Tree) Range(tx tm.Tx, lo, hi int64, fn func(k int64, v uint64) bool) {
	t.rangeNode(tx, t.root(tx), lo, hi, fn)
}

func (t Tree) rangeNode(tx tm.Tx, n tm.Addr, lo, hi int64, fn func(k int64, v uint64) bool) bool {
	if n == tm.NilAddr {
		return true
	}
	k := key(tx, n)
	if k > lo {
		if !t.rangeNode(tx, left(tx, n), lo, hi, fn) {
			return false
		}
	}
	if k >= lo && k <= hi {
		if !fn(k, val(tx, n)) {
			return false
		}
	}
	if k < hi {
		return t.rangeNode(tx, right(tx, n), lo, hi, fn)
	}
	return true
}

// CheckInvariants walks the tree verifying the red-black properties and
// BST ordering; it returns a descriptive string for the first violation
// found, or "" when the tree is valid. Intended for tests (run it inside
// a transaction or on a Direct handle).
func (t Tree) CheckInvariants(tx tm.Tx) string {
	r := t.root(tx)
	if r == tm.NilAddr {
		return ""
	}
	if color(tx, r) != black {
		return "root is not black"
	}
	if parent(tx, r) != tm.NilAddr {
		return "root has a parent"
	}
	_, msg := t.checkNode(tx, r)
	return msg
}

func (t Tree) checkNode(tx tm.Tx, n tm.Addr) (blackHeight int, msg string) {
	if n == tm.NilAddr {
		return 1, ""
	}
	l, r := left(tx, n), right(tx, n)
	if l != tm.NilAddr {
		if parent(tx, l) != n {
			return 0, "broken parent link (left)"
		}
		if key(tx, l) >= key(tx, n) {
			return 0, "BST order violated (left)"
		}
	}
	if r != tm.NilAddr {
		if parent(tx, r) != n {
			return 0, "broken parent link (right)"
		}
		if key(tx, r) <= key(tx, n) {
			return 0, "BST order violated (right)"
		}
	}
	if color(tx, n) == red && (color(tx, l) == red || color(tx, r) == red) {
		return 0, "red node with red child"
	}
	lh, m := t.checkNode(tx, l)
	if m != "" {
		return 0, m
	}
	rh, m := t.checkNode(tx, r)
	if m != "" {
		return 0, m
	}
	if lh != rh {
		return 0, "black heights differ"
	}
	if color(tx, n) == black {
		lh++
	}
	return lh, ""
}
