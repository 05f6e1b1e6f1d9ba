package sb7

import "tlstm/internal/tm"

// Documents: every composite part owns a documentation object (title +
// text) stored *in transactional memory*, as in the original STMBench7.
// The long traversals the paper runs (§4) never read it, but it is part
// of the built structure's footprint. Text is packed 8 bytes per word.

// Document block layout.
const (
	docID       = 0
	docTextLen  = 1
	docTextAddr = 2

	docWords = 3
)

// packText writes s into freshly allocated words, 8 bytes per word,
// returning the block address.
func packText(tx tm.Tx, s string) (tm.Addr, int) {
	n := (len(s) + 7) / 8
	if n == 0 {
		n = 1
	}
	blk := tx.Alloc(n)
	for w := 0; w < n; w++ {
		var word uint64
		for b := 0; b < 8; b++ {
			i := w*8 + b
			if i < len(s) {
				word |= uint64(s[i]) << (8 * b)
			}
		}
		tx.Store(blk+tm.Addr(w), word)
	}
	return blk, len(s)
}

// newDocument allocates a document for composite part id.
func newDocument(tx tm.Tx, id int64, text string) tm.Addr {
	d := tx.Alloc(docWords)
	tm.StoreInt64(tx, d+docID, id)
	blk, n := packText(tx, text)
	tm.StoreInt64(tx, d+docTextLen, int64(n))
	tm.StoreAddr(tx, d+docTextAddr, blk)
	return d
}
