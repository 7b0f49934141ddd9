package runtime

// bitset is a dense bit vector over history ranks: the representation of
// replica seen-sets, of the causal-dependency row of every update and of the
// seen-set a state-based message carries. Ranks are dense and grow with
// generation, so a seen-set over h operations is ⌈h/64⌉ words and the
// causal-delivery test is a word-wise subset test instead of one map probe
// per predecessor. Words beyond the allocated length are zero by definition.
type bitset []uint64

// test reports whether bit i is set.
func (b bitset) test(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

// set sets bit i, growing the vector as needed.
func (b *bitset) set(i int) {
	w := i >> 6
	if w >= len(*b) {
		*b = append(*b, make([]uint64, w+1-len(*b))...)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

// or sets every bit of src in b, growing b as needed.
func (b *bitset) or(src bitset) {
	if len(src) > len(*b) {
		*b = append(*b, make([]uint64, len(src)-len(*b))...)
	}
	dst := *b
	for w, x := range src {
		dst[w] |= x
	}
}

// subsetOf reports whether every bit of b is set in o.
func (b bitset) subsetOf(o bitset) bool {
	for w, x := range b {
		if w >= len(o) {
			if x != 0 {
				return false
			}
			continue
		}
		if x&^o[w] != 0 {
			return false
		}
	}
	return true
}

// arena carves immutable bitset rows out of shared chunks, so recording a
// row per update (or per message) costs an allocation per chunk rather than
// per row. Rows are never written after they are carved.
type arena []uint64

// arenaChunk is the minimum chunk size in words.
const arenaChunk = 256

// intersect returns a carved row holding x ∩ y.
func (a *arena) intersect(x, y bitset) bitset {
	row := a.carve(min(len(x), len(y)))
	for w := range row {
		row[w] = x[w] & y[w]
	}
	return row
}

// clone returns a carved copy of x.
func (a *arena) clone(x bitset) bitset {
	row := a.carve(len(x))
	copy(row, x)
	return row
}

// carve returns n words of fresh storage whose capacity ends at n, so an
// append to the row can never write into its neighbour.
func (a *arena) carve(n int) bitset {
	if n == 0 {
		return nil
	}
	if cap(*a)-len(*a) < n {
		*a = make(arena, 0, max(n, arenaChunk))
	}
	start := len(*a)
	*a = (*a)[:start+n]
	return bitset((*a)[start : start+n : start+n])
}
