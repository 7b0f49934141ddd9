package spec

import (
	"slices"
	"strconv"
	"strings"

	"ralin/internal/core"
)

// SetState is the abstract state of Spec(Set): a plain set of values
// (Appendix E.2). It is the specification of the LWW-Element-Set and the
// 2P-Set, and the specification against which the Figure 5a execution of the
// OR-Set is shown not to be linearizable.
type SetState map[string]bool

// CloneAbs deep-copies the set.
func (s SetState) CloneAbs() core.AbsState {
	c := make(SetState, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// EqualAbs reports set equality.
func (s SetState) EqualAbs(o core.AbsState) bool {
	t, ok := o.(SetState)
	if !ok || len(s) != len(t) {
		return false
	}
	for k := range s {
		if !t[k] {
			return false
		}
	}
	return true
}

// Values returns the sorted contents of the set.
func (s SetState) Values() []string {
	elems := make([]string, 0, len(s))
	for k := range s {
		elems = append(elems, k)
	}
	return core.SortedSet(elems)
}

// String renders the set.
func (s SetState) String() string { return core.FormatValue(s.Values()) }

// StateKey returns the canonical key (sorted quoted elements, the quoteJoin
// rendering), enabling search memoization. Small sets sort in a stack buffer
// and every element is quoted straight into one byte buffer, so the key costs
// a single string allocation.
func (s SetState) StateKey() (string, bool) {
	var ebuf [16]string
	elems := ebuf[:0]
	for k := range s {
		elems = append(elems, k)
	}
	slices.Sort(elems)
	var bbuf [128]byte
	b := bbuf[:0]
	for _, e := range elems {
		b = strconv.AppendQuote(b, e)
		b = append(b, ',')
	}
	return string(b), true
}

// listsSorted reports whether ret holds exactly the set's elements in
// strictly increasing order — what ValueEqual(ret, s.Values()) decides,
// without building the sorted slice. A nil ret never matches: Values is never
// nil, and ValueEqual tells nil and empty slices apart.
func (s SetState) listsSorted(ret []string) bool {
	if ret == nil || len(ret) != len(s) {
		return false
	}
	for k, v := range ret {
		if k > 0 && ret[k-1] >= v {
			return false
		}
		if _, in := s[v]; !in {
			return false
		}
	}
	return true
}

// quoteJoin renders a sorted string slice unambiguously (elements are quoted
// so separators inside values cannot collide).
func quoteJoin(elems []string) string {
	var b strings.Builder
	for _, e := range elems {
		b.WriteString(strconv.Quote(e))
		b.WriteByte(',')
	}
	return b.String()
}

// Set is Spec(Set) of Appendix E.2: add(a) inserts, remove(a) deletes,
// read() ⇒ S returns the sorted contents.
type Set struct{}

// Name returns "Spec(Set)".
func (Set) Name() string { return "Spec(Set)" }

// Init returns the empty set.
func (Set) Init() core.AbsState { return SetState{} }

// Step applies one label.
func (t Set) Step(phi core.AbsState, l *core.Label) []core.AbsState {
	return t.StepAppend(nil, phi, l)
}

// StepAppend appends the successors of phi under l to dst (the
// core.StepAppender fast path).
func (Set) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(SetState)
	if !ok {
		return dst
	}
	switch l.Method {
	case "add":
		if len(l.Args) != 1 {
			return dst
		}
		v, ok := l.Args[0].(string)
		if !ok {
			return dst
		}
		n := s.CloneAbs().(SetState)
		n[v] = true
		return append(dst, n)
	case "remove":
		if len(l.Args) != 1 {
			return dst
		}
		v, ok := l.Args[0].(string)
		if !ok {
			return dst
		}
		n := s.CloneAbs().(SetState)
		delete(n, v)
		return append(dst, n)
	case "read":
		ret, ok := l.Ret.([]string)
		if ok && s.listsSorted(ret) {
			return append(dst, s)
		}
		return dst
	default:
		return dst
	}
}

// ORSetState is the abstract state of Spec(OR-Set) (Example 3.4): a set of
// element-identifier pairs.
type ORSetState map[core.Pair]bool

// CloneAbs deep-copies the pair set.
func (s ORSetState) CloneAbs() core.AbsState {
	c := make(ORSetState, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// EqualAbs reports set equality.
func (s ORSetState) EqualAbs(o core.AbsState) bool {
	t, ok := o.(ORSetState)
	if !ok || len(s) != len(t) {
		return false
	}
	for k := range s {
		if !t[k] {
			return false
		}
	}
	return true
}

// Pairs returns the sorted element-identifier pairs.
func (s ORSetState) Pairs() []core.Pair {
	out := make([]core.Pair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	return core.SortPairs(out)
}

// Values returns the sorted set of element values.
func (s ORSetState) Values() []string {
	elems := make([]string, 0, len(s))
	for p := range s {
		elems = append(elems, p.Elem)
	}
	return core.SortedSet(elems)
}

// String renders the pair set.
func (s ORSetState) String() string { return core.FormatValue(s.Pairs()) }

// StateKey returns the canonical key (sorted quoted pairs), enabling search
// memoization.
func (s ORSetState) StateKey() (string, bool) {
	var b strings.Builder
	for _, p := range s.Pairs() {
		b.WriteString(strconv.Quote(p.Elem))
		b.WriteByte('#')
		b.WriteString(strconv.FormatUint(p.ID, 10))
		b.WriteByte(',')
	}
	return b.String(), true
}

// listsIDs reports whether ret holds exactly the pairs of s with element
// elem, in strictly increasing identifier order — what ValueEqual(ret, want)
// decides for the SortPairs-sorted, never-nil list want of those pairs,
// without building it. A nil ret never matches.
func (s ORSetState) listsIDs(elem string, ret []core.Pair) bool {
	if ret == nil {
		return false
	}
	for k, p := range ret {
		if p.Elem != elem || (k > 0 && ret[k-1].ID >= p.ID) || !s[p] {
			return false
		}
	}
	n := 0
	for p := range s {
		if p.Elem == elem {
			n++
		}
	}
	return n == len(ret)
}

// listsElems reports whether ret holds exactly the distinct elements of s in
// strictly increasing order — what ValueEqual(ret, s.Values()) decides,
// without building the sorted slice. Every pair's element must be found in
// ret (binary search) and every entry of ret must be hit by some pair. A nil
// ret never matches: Values is never nil.
func (s ORSetState) listsElems(ret []string) bool {
	if ret == nil || len(ret) > len(s) {
		return false
	}
	for k := 1; k < len(ret); k++ {
		if ret[k-1] >= ret[k] {
			return false
		}
	}
	var buf [4]uint64
	hit := buf[:]
	if len(ret) > 64*len(buf) {
		hit = make([]uint64, (len(ret)+63)/64)
	}
	n := 0
	for p := range s {
		k, found := slices.BinarySearch(ret, p.Elem)
		if !found {
			return false
		}
		if w, m := k/64, uint64(1)<<(k%64); hit[w]&m == 0 {
			hit[w] |= m
			n++
		}
	}
	return n == len(ret)
}

// ORSet is Spec(OR-Set) of Example 3.4, the specification of the rewritten
// OR-Set operations:
//
//	add(a, id)        adds the pair (a, id), which must be fresh;
//	removeIds(S)      removes the pairs in S;
//	readIds(a) ⇒ S    returns the pairs with element a;
//	read() ⇒ A        returns the set of element values.
type ORSet struct{}

// Name returns "Spec(OR-Set)".
func (ORSet) Name() string { return "Spec(OR-Set)" }

// Init returns the empty pair set.
func (ORSet) Init() core.AbsState { return ORSetState{} }

// Step applies one label.
func (o ORSet) Step(phi core.AbsState, l *core.Label) []core.AbsState {
	return o.StepAppend(nil, phi, l)
}

// StepAppend appends the successors of phi under l to dst (the
// core.StepAppender fast path).
func (ORSet) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(ORSetState)
	if !ok {
		return dst
	}
	switch l.Method {
	case "add":
		if len(l.Args) != 2 {
			return dst
		}
		elem, okE := l.Args[0].(string)
		id, okI := l.Args[1].(uint64)
		if !okE || !okI {
			return dst
		}
		p := core.Pair{Elem: elem, ID: id}
		if s[p] {
			return dst // identifiers are unique; re-adding is not admitted
		}
		n := s.CloneAbs().(ORSetState)
		n[p] = true
		return append(dst, n)
	case "removeIds":
		if len(l.Args) != 1 {
			return dst
		}
		pairs, ok := l.Args[0].([]core.Pair)
		if !ok {
			return dst
		}
		n := s.CloneAbs().(ORSetState)
		for _, p := range pairs {
			delete(n, p)
		}
		return append(dst, n)
	case "readIds":
		if len(l.Args) != 1 {
			return dst
		}
		elem, ok := l.Args[0].(string)
		if !ok {
			return dst
		}
		ret, ok := l.Ret.([]core.Pair)
		if ok && s.listsIDs(elem, ret) {
			return append(dst, s)
		}
		return dst
	case "read":
		ret, ok := l.Ret.([]string)
		if ok && s.listsElems(ret) {
			return append(dst, s)
		}
		return dst
	default:
		return dst
	}
}
